"""The benchmark's workloads, driven through blochlab's public API only.

Each workload has a set-up (compile and validate its inputs), an iteration
(the timed unit of work) and a check of one iteration's outputs against
``reference.json``, which ``record_reference.py`` wrote from the parent
commit of the benchmark.

* ``panel_sweep``: the 990-case sweep ``TEN_MAP_PANEL x G_CORPUS x THEOREMS``
  on the default grid, emitted as JSON and CSV.  Many small calls.
* ``dense_grid``: seed-chosen (phi, g) pairs x all theorems through
  ``classify`` on a grid 16x denser than the default.  Vectorised field
  evaluation and shell reduction; no quadrature, no report emission.
* ``verify_all``: the 28 named checks of ``blochlab.run_suite("all")``.  Polish,
  quadrature, test families and series; scalar expression calls.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random

# Calls go through the package namespace, which the tracer patches.
import blochlab
from blochlab import G_CORPUS, TEN_MAP_PANEL, THEOREMS

REFERENCE_PATH = pathlib.Path(__file__).with_name("reference.json")

#: dense_grid: 64 -> 1024 angles on shell 0 gives 122,880 points, whose
#: complex arrays (1.9 MiB each) no longer fit a 2 MiB L2 with temporaries.
DENSE_BASE_ANGULAR = 1024
#: dense_grid runs this many seed-chosen cyclic transversals of the panel.
#: Each uses every symbol once and nine distinct maps, so the cost of a pass
#: varies little from seed to seed.
DENSE_TRANSVERSALS = 1


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def pair_key(phi: str, g: str) -> str:
    return f"{phi} | {g}"


def dense_pairs(seed: int) -> list[tuple[str, str]]:
    """Pairs ``(TEN_MAP_PANEL[(i + s) % 10], G_CORPUS[i])`` for seed-chosen shifts ``s``."""
    shifts = sorted(random.Random(seed).sample(range(len(TEN_MAP_PANEL)), DENSE_TRANSVERSALS))
    n = len(TEN_MAP_PANEL)
    return [(TEN_MAP_PANEL[(i + s) % n], g) for s in shifts for i, g in enumerate(G_CORPUS)]


def verdict_digest(verdicts) -> str:
    return sha256(json.dumps([v.to_dict() for v in verdicts], sort_keys=True))


class PanelSweep:
    name = "panel_sweep"

    def __init__(self, seed: int, reference: dict):
        self.seed = seed  # the panel is fixed; the seed has no effect
        self.reference = reference["panel_sweep"]
        self.spec = None

    def setup(self) -> None:
        self.spec = blochlab.ExperimentSpec(
            phi_exprs=TEN_MAP_PANEL, g_exprs=G_CORPUS, theorem_ids=tuple(sorted(THEOREMS))
        )
        grid = blochlab.make_grid(self.spec.max_shell, self.spec.base_angular)
        # run_classification parses and validates again; this only rejects
        # bad inputs before timing starts.
        for src in self.spec.phi_exprs:
            blochlab.validate_self_map(blochlab.analytic(src), grid)
        for src in self.spec.g_exprs:
            blochlab.analytic(src)
        self.cases = len(TEN_MAP_PANEL) * len(G_CORPUS) * len(THEOREMS)
        self.points = grid.size

    def iterate(self):
        report = blochlab.run_classification(self.spec)
        return report, blochlab.to_json(report.to_dict(include_timing=False)), blochlab.to_csv(report)

    def check(self, output) -> tuple[int, int, list[str]]:
        report, json_text, csv_text = output
        ref = self.reference
        failed, notes = 0, []
        for case in report.cases:
            key = "|".join(case.key)
            got = case.verdict.conclusion.value if case.verdict else f"error: {case.error}"
            if got != ref["verdicts"].get(key):
                failed += 1
                notes.append(f"{key}: {got} != {ref['verdicts'].get(key)}")
        for label, text in (("json", json_text), ("csv", csv_text)):
            if sha256(text) != ref[f"{label}_sha256"]:
                failed += 1
                notes.append(f"{label} digest differs from the reference")
        attempted = len(ref["verdicts"]) + 2
        failed += max(0, len(ref["verdicts"]) - len(report.cases))
        return attempted, failed, notes


class DenseGrid:
    name = "dense_grid"

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.reference = reference["dense_grid"]
        self.pairs = dense_pairs(seed)
        self.theorems = tuple(sorted(THEOREMS))

    def setup(self) -> None:
        self.grid = blochlab.make_grid(blochlab.diskgeom.DEFAULT_MAX_SHELL, DENSE_BASE_ANGULAR)
        maps = {p: blochlab.validate_self_map(blochlab.analytic(p), self.grid)
                for p in dict.fromkeys(p for p, _ in self.pairs)}
        symbols = {g: blochlab.analytic(g) for g in dict.fromkeys(g for _, g in self.pairs)}
        for fn in [m.fn for m in maps.values()] + list(symbols.values()):
            fn.derivative  # symbolic derivative, compiled once per function
        self.inputs = [(maps[p], symbols[g]) for p, g in self.pairs]
        self.cases = len(self.pairs) * len(self.theorems)
        self.points = self.grid.size

    def iterate(self):
        return [
            [blochlab.classify(t, phi, g, self.grid) for t in self.theorems] for phi, g in self.inputs
        ]

    def check(self, output) -> tuple[int, int, list[str]]:
        failed, notes = 0, []
        for (phi, g), verdicts in zip(self.pairs, output):
            key = pair_key(phi, g)
            want = self.reference["verdicts"][key]
            got = [v.conclusion.value for v in verdicts]
            failed += sum(a != b for a, b in zip(got, want))
            if got != want:
                notes.append(f"{key}: {got} != {want}")
            elif verdict_digest(verdicts) != self.reference["digests"][key]:
                failed += 1
                notes.append(f"{key}: verdict evidence differs from the reference")
        return self.cases, failed, notes


class VerifyAll:
    name = "verify_all"

    def __init__(self, seed: int, reference: dict):
        self.seed = seed  # the suite is fixed; the seed has no effect
        self.reference = reference["verify_all"]

    def setup(self) -> None:
        self.cases = len(blochlab.available_checks("all"))
        self.points = blochlab.make_grid().size  # nominal: the default grid's size

    def iterate(self):
        return blochlab.run_suite("all")

    def check(self, output) -> tuple[int, int, list[str]]:
        want = self.reference["checks"]
        got = {r.name: r for r in output}
        notes = [f"{n}: {got[n].detail if n in got else 'missing'}"
                 for n in want if n not in got or not got[n].passed]
        return len(want), len(notes), notes


WORKLOADS = {w.name: w for w in (PanelSweep, DenseGrid, VerifyAll)}
