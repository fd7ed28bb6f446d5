"""Span tracing of blochlab's layers, installed from outside the package.

:class:`Tracer` replaces the public functions of each module with wrappers
that record a span (name, start, end, parent) per call.  A function is
replaced at every import site: ``from .criteria import classify`` leaves a
second reference in ``harness``, so every ``blochlab`` module namespace is
scanned for the original object.  ``AnalyticFn.__call__`` and ``deriv`` are
wrapped on the class and split into scalar and array calls; ``SelfMap``
delegates to them and is left alone so no call is counted twice.  Each
registered ``verify`` check is wrapped in its registry entry.

Spans stay in memory; :func:`layer_metrics` reduces one phase's spans to the
per-layer numbers.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import sys
import time

import numpy as np
from blochlab import exprdsl, verify
from blochlab.criteria import PHI_BOUNDARY_KINDS

#: (module, public function) -> span name.  A function's own module is
#: where the original object is looked up.
TRACED_FUNCTIONS: dict[tuple[str, str], str] = {
    ("exprdsl", "analytic"): "exprdsl.analytic",
    ("diskgeom", "make_grid"): "diskgeom.make_grid",
    ("diskgeom", "validate_self_map"): "diskgeom.validate_self_map",
    ("criteria", "criterion_value"): "criteria.criterion_value",
    ("criteria", "evaluate_criterion"): "criteria.evaluate_criterion",
    ("criteria", "classify"): "criteria.classify",
    ("operators", "commutator_value"): "operators.quad",
    ("operators", "apply_Jg"): "operators.quad",
    ("operators", "apply_Ig"): "operators.quad",
    ("operators", "bloch_seminorm"): "operators.bloch_seminorm",
    ("operators", "hinf_norm"): "operators.hinf_norm",
    ("operators", "commutator_seminorm"): "operators.commutator_seminorm",
    ("testfns", "make_test_fn"): "testfns.build",
    ("testfns", "build_interpolation_family"): "testfns.build",
    ("testfns", "select_separated_subsequence"): "testfns.build",
    ("series", "coeffs_from_samples"): "series.coeffs_from_samples",
    ("harness", "run_classification"): "harness.run_classification",
    ("harness", "to_json"): "harness.emit",
    ("harness", "to_csv"): "harness.emit",
}


class Span:
    """One call: name, start, end and the span that caused it (``parent``)."""

    __slots__ = ("name", "parent", "info", "start", "end", "error", "child_s", "under_polish")

    def __init__(self, name: str, parent: "Span | None", info):
        self.name = name
        self.parent = parent
        self.info = info
        self.start = self.end = self.child_s = 0.0
        self.error: str | None = None
        self.under_polish = parent is not None and (
            parent.under_polish or parent.name == "operators.bloch_seminorm"
        )


def _fn_key(fn) -> str | None:
    return None if fn is None else fn.source


def _grid_key(grid) -> tuple[int, int, int]:
    return (grid.max_shell, grid.base_angular, grid.size)


def _describe(span_name: str, args, kwargs):
    """Per-call detail recorded with a span (sizes and field identity)."""
    if span_name == "criteria.criterion_value":
        return int(np.size(args[3] if len(args) > 3 else kwargs["z"]))
    if span_name == "criteria.evaluate_criterion":
        kind, phi, g, grid = args[:4]
        phi_key = _fn_key(phi) if kind in PHI_BOUNDARY_KINDS else None
        return (kind.value, phi_key, _fn_key(g), _grid_key(grid))
    return None


def _result_size(span_name: str, result):
    if span_name == "diskgeom.make_grid":
        return int(result.size)
    if span_name == "harness.emit":
        return len(result.encode("utf-8"))
    return None


class Tracer:
    """Installs span wrappers into the loaded ``blochlab`` modules."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []
        self._registry_backup: dict | None = None

    # -- recording -------------------------------------------------------

    def _wrap(self, span_name, fn, name_for_call=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if name_for_call is None:
                name, info = span_name, _describe(span_name, args, kwargs)
            else:
                name, info = name_for_call(args)
            span = Span(name, stack[-1] if stack else None, info)
            stack.append(span)
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start
            size = _result_size(name, result)
            if size is not None:
                span.info = size
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a new phase."""
        out = list(self.spans)
        del self.spans[:]
        return out

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n == "blochlab" or n.startswith("blochlab.")]
        wrappers: dict[int, object] = {}
        for (mod_name, fn_name), span_name in TRACED_FUNCTIONS.items():
            original = getattr(sys.modules[f"blochlab.{mod_name}"], fn_name)
            wrappers[id(original)] = self._wrap(span_name, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)

        def split(args):
            z = args[1] if len(args) > 1 else None
            if np.ndim(z) > 0:
                return "exprdsl.array", int(np.size(z))
            return "exprdsl.scalar", None

        cls = exprdsl.AnalyticFn
        for attr in ("__call__", "deriv"):
            self._patch(cls, attr, self._wrap(None, vars(cls)[attr], split))

        self._registry_backup = dict(verify._REGISTRY)
        for check_name, (suite, fn) in self._registry_backup.items():
            verify._REGISTRY[check_name] = (suite, self._wrap(f"verify.check.{check_name}", fn))

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        if self._registry_backup is not None:
            verify._REGISTRY.clear()
            verify._REGISTRY.update(self._registry_backup)
            self._registry_backup = None


# --------------------------------------------------------------------------
# reduction of spans to per-layer metrics

QUAD = "operators.quad"


def layer_metrics(spans: list[Span], check_names: list[str]) -> dict[str, float]:
    """Counts and seconds per layer for the given spans."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    points: dict[str, int] = {}
    outer: dict[str, float] = {}  # time of spans not nested in a same-named span
    fields: set = set()
    quad_failures = 0
    polish_scalar = 0
    for s in spans:
        dur = s.end - s.start
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + dur
        self_s[s.name] = self_s.get(s.name, 0.0) + dur - s.child_s
        nested = s.parent is not None and s.parent.name == s.name
        if not nested:
            outer[s.name] = outer.get(s.name, 0.0) + dur
        if isinstance(s.info, int):
            points[s.name] = points.get(s.name, 0) + s.info
        if s.name == "criteria.evaluate_criterion":
            fields.add(s.info)
        elif s.name == QUAD and s.error == "QuadratureError" and not nested:
            quad_failures += 1
        elif s.name == "exprdsl.scalar" and s.under_polish:
            polish_scalar += 1

    evaluate_calls = calls.get("criteria.evaluate_criterion", 0)
    out = {
        "exprdsl.compile_s": total.get("exprdsl.analytic", 0.0),
        "exprdsl.array_calls": calls.get("exprdsl.array", 0),
        "exprdsl.array_points": points.get("exprdsl.array", 0),
        "exprdsl.array_self_s": self_s.get("exprdsl.array", 0.0),
        "exprdsl.scalar_calls": calls.get("exprdsl.scalar", 0),
        "exprdsl.scalar_self_s": self_s.get("exprdsl.scalar", 0.0),
        "diskgeom.grid_points": points.get("diskgeom.make_grid", 0),
        "diskgeom.make_grid_s": total.get("diskgeom.make_grid", 0.0),
        "diskgeom.validate_calls": calls.get("diskgeom.validate_self_map", 0),
        "diskgeom.validate_self_s": self_s.get("diskgeom.validate_self_map", 0.0),
        "criteria.evaluate_calls": evaluate_calls,
        "criteria.distinct_fields": len(fields),
        "criteria.field_reuse_ratio": len(fields) / evaluate_calls if evaluate_calls else 0.0,
        "criteria.points_evaluated": points.get("criteria.criterion_value", 0),
        "criteria.field_self_s": self_s.get("criteria.criterion_value", 0.0),
        "criteria.reduce_self_s": self_s.get("criteria.evaluate_criterion", 0.0),
        "criteria.classify_calls": calls.get("criteria.classify", 0),
        "criteria.classify_self_s": self_s.get("criteria.classify", 0.0),
        "operators.quad_calls": calls.get(QUAD, 0),
        "operators.quad_self_s": self_s.get(QUAD, 0.0),
        "operators.quad_failures": quad_failures,
        "operators.polish_calls": calls.get("operators.bloch_seminorm", 0),
        "operators.polish_s": outer.get("operators.bloch_seminorm", 0.0),
        "operators.polish_scalar_evals": polish_scalar,
        "operators.hinf_s": outer.get("operators.hinf_norm", 0.0),
        "operators.commutator_seminorm_s": outer.get("operators.commutator_seminorm", 0.0),
        "testfns.build_s": outer.get("testfns.build", 0.0),
        "series.recover_s": outer.get("series.coeffs_from_samples", 0.0),
        "harness.orchestrate_self_s": self_s.get("harness.run_classification", 0.0),
        "harness.emit_s": outer.get("harness.emit", 0.0),
        "harness.emit_bytes": points.get("harness.emit", 0),
    }
    for name in check_names:
        out[f"verify.check_s.{name}"] = total.get(f"verify.check.{name}", 0.0)
    return out

