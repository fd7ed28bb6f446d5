"""Record the reference outputs that the benchmark checks every iteration against.

Run from the repository root on the commit whose outputs are the reference::

    PYTHONPATH=src:bench python3 bench/record_reference.py

It writes ``bench/reference.json``: the panel sweep's per-case verdicts,
verdict tally and the sha256 of its JSON (without timing) and CSV; the
verdicts and a digest of the verdict evidence for every one of the 90
(phi, g) pairs on the dense grid, so any seed's pairs can be checked; and the
names of the checks that must pass.
"""

import json
import sys
from collections import Counter

import blochlab
from blochlab import G_CORPUS, TEN_MAP_PANEL, available_checks, run_suite

import workloads


def main() -> int:
    sweep = workloads.PanelSweep(0, {"panel_sweep": None})
    sweep.setup()
    report, json_text, csv_text = sweep.iterate()
    errors = [c for c in report.cases if c.verdict is None]
    if errors:
        print(f"{len(errors)} panel cases raised; no reference written", file=sys.stderr)
        return 1
    panel = {
        "cases": len(report.cases),
        "tally": dict(sorted(Counter(c.verdict.conclusion.value for c in report.cases).items())),
        "json_sha256": workloads.sha256(json_text),
        "csv_sha256": workloads.sha256(csv_text),
        "verdicts": {"|".join(c.key): c.verdict.conclusion.value for c in report.cases},
    }

    dense = workloads.DenseGrid(0, {"dense_grid": None})
    dense.pairs = [(phi, g) for phi in TEN_MAP_PANEL for g in G_CORPUS]
    dense.setup()
    verdicts, digests = {}, {}
    for (phi, g), pair_verdicts in zip(dense.pairs, dense.iterate()):
        key = workloads.pair_key(phi, g)
        verdicts[key] = [v.conclusion.value for v in pair_verdicts]
        digests[key] = workloads.verdict_digest(pair_verdicts)

    results = run_suite("all")
    failing = [r.name for r in results if not r.passed]
    if failing:
        print(f"checks fail: {failing}; no reference written", file=sys.stderr)
        return 1

    reference = {
        "blochlab_version": blochlab.__version__,
        "panel_sweep": panel,
        "dense_grid": {
            "max_shell": blochlab.diskgeom.DEFAULT_MAX_SHELL,
            "base_angular": workloads.DENSE_BASE_ANGULAR,
            "theorems": list(dense.theorems),
            "verdicts": verdicts,
            "digests": digests,
        },
        "verify_all": {"checks": available_checks("all")},
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {workloads.REFERENCE_PATH}: tally {panel['tally']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
