"""Experiment orchestration: built-in panels, suite runs, and report emission.

The module defines no check.  The built-in panels fix the maps and symbols
the checks of :mod:`blochlab.verify` run against: eight disk automorphisms,
three strict shrinkers, fifteen rotations (angles ``2 pi k / 16``), the
ten-map classification panel (automorphisms plus two shrinkers), and symbol
corpora for ``g`` and the test functions ``f``.  The near-boundary log symbol
uses ``c = 0.999`` in ``log(2/(1-cz))`` so every sample stays inside the
analyticity domain while the divergence trend is still visible at shell
resolution.

Reports are plain dicts rendered by a small deterministic JSON emitter that
writes every real with 17 significant digits (the stdlib encoder's shortest
round-trip floats would be non-lossy too, but the fixed format makes byte
identity across runs trivial to check).  The emitter looks each value's exact
type up in a table of scalar renderers and walks only dicts, lists and tuples;
a subclass (``np.float64`` is a float) renders as its base type and any other
value as its quoted ``str``.  Each string key is quoted once per call.  A list
of ``[int, finite float]`` lists (every report's ``shell_sups``) is rendered in
one ``%`` operation, from a template built once per length and indent.  A
report's ``invariants`` list is always empty; it keeps the schema's shape.  CSV
output is reserved for sweep results, one row per (phi, g, theorem) case.

A symbol whose value or derivative is not finite at a grid point or at the
origin is a per-case error of every case that uses it, as a map that leaves
the disk is.
"""

from __future__ import annotations

import copy
import io
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii

from .config import read_config
from .criteria import (
    PreconditionFailed,
    THEOREMS,
    FieldSet,
    MapFields,
    SymbolFields,
    Thresholds,
    Verdict,
    classify,
)
from .diskgeom import (
    DEFAULT_BASE_ANGULAR,
    DEFAULT_MAX_SHELL,
    NotFiniteOnGrid,
    check_grid_range,
    make_grid,
)
from .exprdsl import ExprError, analytic

SCHEMA_VERSION = 1

ROTATION_ANGLES: tuple[float, ...] = tuple(2.0 * math.pi * k / 16 for k in range(1, 16))

AUTOMORPHISM_PANEL: tuple[str, ...] = (
    "mobius(0.5)",
    "mobius(-0.5)",
    "mobius(0.3i)",
    "mobius(-0.6i)",
    "mobius(complex(0.2,0.4))",
    "mobius(0.8)",
    "-mobius(0.7)",
    "mobius(complex(-0.35,0.15))",
)

SHRINKER_PANEL: tuple[str, ...] = ("z/2", "z^2/2", "(z+0.3)/2")

ROTATION_PANEL: tuple[str, ...] = tuple(f"exp({t!r}i)*z" for t in ROTATION_ANGLES)

TEN_MAP_PANEL: tuple[str, ...] = AUTOMORPHISM_PANEL + ("z/2", "(z+0.3)/2")

G_CORPUS: tuple[str, ...] = (
    "1",
    "complex(0.25,-0.5)",
    "z",
    "z^2",
    "mobius(0.5)",
    "1-mobius(0.7)",
    "log(2/(1-0.5*z))",
    "log(2/(1-0.9*z))",
    "log(2/(1-0.999*z))",
)

POLYNOMIAL_G_CORPUS: tuple[str, ...] = (
    "1",
    "z",
    "z^2",
    "z^3-z+0.5",
    "z^4",
    "0.25*z^4-z^2+complex(0,1)*z",
)

BLOCH_F_CORPUS: tuple[str, ...] = (
    "z",
    "z^2",
    "mobius(0.5)",
    "mobius(-0.3)",
    "1-mobius(0.7)",
    "log(2/(1-0.9*z))",
)

HINF_F_CORPUS: tuple[str, ...] = (
    "1",
    "z",
    "mobius(0.5)",
    "1-mobius(0.7)",
    "(1-0.81)/(1-0.9*z)",
    "mobius(0.6)*(1-0.36)/(1-0.6*z)",
)


# --------------------------------------------------------------------------
# experiment specs and suite reports


@dataclass(frozen=True)
class ExperimentSpec:
    phi_exprs: tuple[str, ...]
    g_exprs: tuple[str, ...]
    theorem_ids: tuple[str, ...]
    max_shell: int = DEFAULT_MAX_SHELL
    base_angular: int = DEFAULT_BASE_ANGULAR
    thresholds: Thresholds = field(default_factory=Thresholds)
    output: str = "json"

    def __post_init__(self):
        for name in ("phi_exprs", "g_exprs", "theorem_ids"):
            value = tuple(getattr(self, name))
            object.__setattr__(self, name, value)
            if not value:
                raise ValueError(f"{name} must be nonempty")
            repeated = [v for v, n in Counter(value).items() if n > 1]
            if repeated:
                raise ValueError(f"{name} lists {repeated[0]!r} more than once")
        unknown = [t for t in self.theorem_ids if t not in THEOREMS]
        if unknown:
            raise ValueError(f"unknown theorem ids: {unknown}")
        max_shell, base_angular = check_grid_range(self.max_shell, self.base_angular)
        object.__setattr__(self, "max_shell", max_shell)
        object.__setattr__(self, "base_angular", base_angular)
        if self.output not in ("json", "csv"):
            raise ValueError(f"output must be json or csv, got {self.output!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        """Build a spec from parsed JSON, ``grid`` and ``thresholds`` read as config sections.

        A malformed spec or an unknown key at any level raises ``ValueError``.
        """
        if not isinstance(data, dict):
            raise ValueError(f"spec must be a JSON object, got {type(data).__name__}")
        for key in data:
            if key not in ("phi", "g", "theorems", "grid", "thresholds", "output"):
                raise ValueError(f"unknown spec key {key!r}")
        for key in ("phi", "g", "theorems"):
            if key not in data:
                raise ValueError(f"spec is missing required key {key!r}")
            if not isinstance(data[key], list) or not all(isinstance(v, str) for v in data[key]):
                raise ValueError(f"spec key {key!r} must be a list of strings")
        config = read_config({key: data[key] for key in ("grid", "thresholds") if key in data})
        return cls(
            phi_exprs=tuple(data["phi"]),
            g_exprs=tuple(data["g"]),
            theorem_ids=tuple(data["theorems"]),
            max_shell=config.grid.max_shell,
            base_angular=config.grid.base_angular,
            thresholds=config.thresholds,
            output=data.get("output", "json"),
        )

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentSpec":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {
            "phi": list(self.phi_exprs),
            "g": list(self.g_exprs),
            "theorems": list(self.theorem_ids),
            "grid": {"max_shell": self.max_shell, "base_angular": self.base_angular},
            "thresholds": self.thresholds.to_dict(),
            "output": self.output,
        }


@dataclass(frozen=True)
class CaseResult:
    theorem_id: str
    phi: str
    g: str
    verdict: Verdict | None = None
    error: str | None = None

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.theorem_id, self.phi, self.g)

    def to_dict(self) -> dict:
        return self._to_dict(lambda obj: obj.to_dict())

    def _to_dict(self, dict_of) -> dict:
        out: dict = {"theorem_id": self.theorem_id, "phi": self.phi, "g": self.g}
        if self.verdict is not None:
            out["verdict"] = self.verdict._to_dict(dict_of)
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass(frozen=True)
class SuiteReport:
    cases: tuple[CaseResult, ...]
    config: dict
    elapsed_seconds: float

    def to_dict(self, include_timing: bool = True) -> dict:
        """The report as plain dicts, each evidence report and thresholds object as one dict.

        Within one call, every verdict that holds the same
        :class:`CriterionReport` (a symbol's ``|z|`` reports are one object
        across its maps) or the same :class:`Thresholds` holds the same dict,
        which :func:`to_json` then renders once.  Separate calls share no
        dict (``config`` is copied too), and ``CaseResult.to_dict`` and
        ``Verdict.to_dict`` build fresh ones.
        """
        shared: dict[int, dict] = {}  # id of a report or thresholds -> its dict in this call

        def dict_of(obj) -> dict:
            out = shared.get(id(obj))
            if out is None:
                out = shared[id(obj)] = obj.to_dict()
            return out

        out = {
            "schema": SCHEMA_VERSION,
            "config": copy.deepcopy(self.config),
            "cases": [c._to_dict(dict_of) for c in self.cases],
            "invariants": [],
        }
        if include_timing:
            out["elapsed_seconds"] = self.elapsed_seconds
        return out


def run_classification(spec: ExperimentSpec) -> SuiteReport:
    """Classify every (theorem, phi, g) case; per-case errors stay in-report."""
    start = time.perf_counter()
    grid = make_grid(spec.max_shell, spec.base_angular)

    # one symbol side per symbol, shared by every map paired with it and checked up front
    symbols: dict[str, SymbolFields | Exception] = {}
    for src in spec.g_exprs:
        try:
            symbols[src] = SymbolFields(analytic(src), grid)
            symbols[src].g_z, symbols[src].dg_z
        except (ExprError, NotFiniteOnGrid) as exc:
            symbols[src] = exc

    cases = []
    for phi_src in spec.phi_exprs:
        # one map side per map, checked in its turn and shared by its pairs; the
        # previous map's side and set go before this map is sampled
        map_side = fields = None
        try:
            map_side = MapFields(analytic(phi_src), grid)
            map_side.w
        except ValueError as exc:
            map_side = exc
        for g_src in spec.g_exprs:
            symbol = symbols[g_src]
            if isinstance(map_side, Exception) or isinstance(symbol, Exception):
                error = f"phi: {map_side}" if isinstance(map_side, Exception) else f"g: {symbol}"
                cases.extend(CaseResult(t, phi_src, g_src, error=error) for t in spec.theorem_ids)
                continue
            fields = FieldSet(map_side, symbol)
            for theorem_id in spec.theorem_ids:
                try:
                    verdict = classify(theorem_id, map_side.phi, symbol.g, grid, spec.thresholds, fields)
                    cases.append(CaseResult(theorem_id, phi_src, g_src, verdict=verdict))
                except (PreconditionFailed, ValueError) as exc:
                    cases.append(CaseResult(theorem_id, phi_src, g_src, error=str(exc)))
    cases.sort(key=lambda c: c.key)
    spec_dict = spec.to_dict()
    return SuiteReport(
        cases=tuple(cases),
        config={key: spec_dict[key] for key in ("grid", "thresholds", "output")},
        elapsed_seconds=time.perf_counter() - start,
    )


# --------------------------------------------------------------------------
# report emission


def _float_text(x: float) -> str:
    return format(x, ".17g") if math.isfinite(x) else json.dumps(x)


#: Text of each exact scalar type; subclasses and other types go to _other_text.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
}


def _other_text(obj) -> str:
    """A subclass of int or float as its base type (``np.float64`` is a float); else ``str`` quoted."""
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    return encode_basestring_ascii(str(obj))


def _pair_list_text(obj: list, pad: str, templates: dict) -> str | None:
    """Text of a list of ``[int, finite float]`` lists at indent ``pad``, or None for any other list.

    The text comes from one ``%``-template per (length, indent), filled from
    the flattened pairs: ``%d`` is ``int.__repr__`` for an exact ``int`` and
    ``%.17g`` is ``format(x, ".17g")``, so the bytes are the writer's.  Only
    exact types qualify (a ``bool`` or ``np.float64`` goes to the writer).
    """
    if set(map(type, obj)) != {list} or set(map(len, obj)) != {2}:
        return None
    ks, xs = zip(*obj)
    if set(map(type, ks)) != {int} or set(map(type, xs)) != {float} or not math.isfinite(sum(xs)):
        return None  # a sum that overflows sends finite reals to the writer, too
    template = templates.get((len(obj), pad))
    if template is None:
        inner, item_pad = pad + "  ", pad + "    "
        pair = "[\n" + item_pad + "%d,\n" + item_pad + "%.17g\n" + inner + "]"
        template = templates[len(obj), pad] = (
            "[\n" + inner + (",\n" + inner).join([pair] * len(obj)) + "\n" + pad + "]"
        )
    return template % tuple(chain.from_iterable(obj))


def to_json(payload: dict) -> str:
    """Deterministic JSON with every finite real at 17 significant digits.

    Every piece of text goes to one list, joined once at the end.  A dict
    that holds no dict at any depth (an evidence report, the thresholds) is
    rendered once per indent and call, and its text is reused wherever the
    same object appears again at that indent; the payload keeps each such
    object, and so its id, alive for the whole call.  A list of
    ``[int, finite float]`` lists is one format call (:func:`_pair_list_text`);
    every other list goes through the writer.
    """
    keys: dict[str, str] = {}  # each distinct key is encoded once per call
    texts: dict[tuple[int, str], str] = {}  # (id, indent) of a dict holding no dict -> its text
    templates: dict[tuple[int, str], str] = {}  # (length, indent) of a pair list -> its template
    scalar = _SCALAR_TEXT.get
    out: list[str] = []
    put = out.append
    dicts = 0  # dicts met so far, to tell whether one holds another

    def write(obj, pad: str) -> None:
        nonlocal dicts
        inner = pad + "  "
        if isinstance(obj, dict):
            dicts += 1
            if not obj:
                put("{}")
                return
            text = texts.get((id(obj), pad))
            if text is not None:
                put(text)
                return
            start, seen = len(out), dicts
            sep = "{\n" + inner
            for key, value in obj.items():
                if type(key) is not str:
                    key_text = encode_basestring_ascii(str(key)) + ": "
                elif key in keys:
                    key_text = keys[key]
                else:
                    key_text = keys[key] = encode_basestring_ascii(key) + ": "
                render = scalar(type(value))
                if render is not None:
                    put(sep + key_text + render(value))
                else:
                    put(sep + key_text)
                    write(value, inner)
                sep = ",\n" + inner
            put("\n" + pad + "}")
            if dicts == seen:
                text = texts[id(obj), pad] = "".join(out[start:])
                del out[start:]
                put(text)
        elif isinstance(obj, (list, tuple)):
            if not obj:
                put("[]")
                return
            if type(obj) is list and type(obj[0]) is list:
                text = _pair_list_text(obj, pad, templates)
                if text is not None:
                    put(text)
                    return
            sep = "[\n" + inner
            for value in obj:
                render = scalar(type(value))
                if render is not None:
                    put(sep + render(value))
                else:
                    put(sep)
                    write(value, inner)
                sep = ",\n" + inner
            put("\n" + pad + "]")
        else:
            put((scalar(type(obj)) or _other_text)(obj))

    write(payload, "")
    put("\n")
    return "".join(out)


CSV_COLUMNS = (
    "theorem_id",
    "phi",
    "g",
    "conclusion",
    "sup_value",
    "boundary_limsup_estimate",
    "vacuous_boundary",
    "error",
)


def to_csv(report: SuiteReport) -> str:
    """One row per case: the conclusion and the numbers of the verdict's headline report."""
    # imported here, so that only a CSV report pays for it (~1 ms)
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for case in report.cases:
        if case.verdict is None:
            writer.writerow([case.theorem_id, case.phi, case.g, "", "", "", "", case.error])
            continue
        main = case.verdict.main
        writer.writerow(
            [
                case.theorem_id,
                case.phi,
                case.g,
                case.verdict.conclusion.value,
                format(main.sup_value, ".17g"),
                format(main.boundary_limsup_estimate, ".17g"),
                str(main.vacuous_boundary).lower(),
                "",
            ]
        )
    return buf.getvalue()
