"""Named verification checks: identity, bound, and theorem-level suites.

Every numerical invariant the package relies on is a named check here, so
failures are addressable individually (``blochlab verify --filter NAME``).
Every check is defined here, the ``harness.*`` ones included.
Checks are grouped into three suites:

* ``identities`` — algebraic facts that must hold to round-off: series ring
  operations, expression round-trips, the closed-form commutator derivative
  against finite differences of the two-integral form, report determinism.
* ``bounds`` — one-sided inequalities with explicit tolerances: the upper
  bound chains, test-family seminorms, Schwarz-Pick, separation/interpolation.
* ``theorems`` — classifier-level coherence: grid monotonicity, rigidity,
  little-Bloch sufficiency, rotation necessity, boundary log-ratio behaviour,
  rotation-average coherence.

All randomness is drawn from a fixed seed, so every run of a check sees the
same maps and points.  Each check is a pure function of module constants
that builds its own grids, maps and symbols, so :func:`run_suite` may run
the checks in any process, in any order; ``taskset -c 0 blochlab verify``
runs them in-process.  Every grid names its depth, so no check's result
moves with ``diskgeom.DEFAULT_MAX_SHELL``.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .criteria import (
    Conclusion,
    CriterionKind,
    DEFAULT_THRESHOLDS,
    FieldSet,
    MapFields,
    Membership,
    SymbolFields,
    classify,
    evaluate_criterion,  # noqa: F401  (bench/tests patch verify.evaluate_criterion)
    little_bloch_membership,
    read_tail,
)
from .diskgeom import (
    DiskGrid,
    make_grid,
    schwarz_pick_modulus_bound,
    shell_maxima,
    shell_radius,
    validate_self_map,
)
from .exprdsl import AnalyticFn, analytic, evaluate, parse, print_expr
from .exprdsl import ROUNDTRIP_CORPUS
from .harness import (
    AUTOMORPHISM_PANEL,
    BLOCH_F_CORPUS,
    G_CORPUS,
    HINF_F_CORPUS,
    POLYNOMIAL_G_CORPUS,
    ROTATION_ANGLES,
    ROTATION_PANEL,
    SHRINKER_PANEL,
    TEN_MAP_PANEL,
    ExperimentSpec,
    run_classification,
    to_json,
)
from .operators import (
    OperatorKind,
    apply_Ig,
    apply_Jg,
    bloch_seminorm,
    commutator_derivative,
    commutator_seminorms,
    commutator_value,
    hinf_norm,
)
from .series import TaylorSeries, antiderivative, coeffs_from_samples, derivative, mul, recovery_count
from .testfns import (
    LogFw,
    MobiusAlpha,
    PeakH,
    ProductF,
    build_interpolation_family,
    make_test_fn,
    select_separated_subsequence,
)

SEED = 20250814
SUITES = ("identities", "bounds", "theorems")

FD_STEP = 1e-5
FD_RTOL = 1e-6
CHAIN_TOL = 1e-9
NECESSITY_TOL = 1e-6


@dataclass(frozen=True)
class CheckResult:
    name: str
    suite: str
    passed: bool
    detail: str
    slack: float | None = None

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "suite": self.suite,
            "passed": self.passed,
            "detail": self.detail,
        }
        if self.slack is not None:
            out["slack"] = self.slack
        return out


_REGISTRY: dict[str, tuple[str, object]] = {}


def _check(name: str, suite: str):
    """Register a zero-argument check under ``name`` in ``suite``.

    The check returns ``(passed, detail)`` or ``(passed, detail, slack)``;
    :func:`run_suite` attaches the name and suite given here.
    """
    assert suite in SUITES

    def register(fn):
        _REGISTRY[name] = (suite, fn)
        return fn

    return register


def available_checks(suite: str = "all") -> list[str]:
    if suite not in SUITES and suite != "all":
        raise ValueError(f"unknown suite {suite!r}; choose from {('all',) + SUITES}")
    return [n for n, (s, _) in _REGISTRY.items() if suite in ("all", s)]


def run_suite(suite: str = "all", name_filter: str | None = None) -> list[CheckResult]:
    """Run the selected suite; per-check exceptions become failed results.

    With at least two checks, two usable CPUs and no other thread in this
    process, the checks run in forked worker processes, at most one per
    usable CPU; otherwise (one check, one usable CPU, or a caller with
    threads) they run here.  Each check builds its own inputs, so either way
    the results come back in registry order and equal a serial run's.  A
    worker that dies raises ``BrokenProcessPool``.  Workers keep their freed
    heap (:func:`_keep_freed_heap`); a run here keeps the C library's
    allocator defaults.
    """
    names = available_checks(suite)
    if name_filter is not None:
        names = [n for n in names if name_filter in n]
    if not names:
        raise ValueError(f"no checks match suite={suite!r} filter={name_filter!r}")
    workers = min(len(names), len(os.sched_getaffinity(0)))
    # a thread of the caller may hold a lock that a forked worker would never see released
    if workers < 2 or threading.active_count() > 1:
        return list(map(_run_check, names))
    # imported here, so that only a pooled run pays for it (~0.5 MB and ~6 ms)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # a forked worker inherits the imported modules and the registry
    with ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"), initializer=_keep_freed_heap
    ) as pool:
        return list(pool.map(_run_check, names))


def _keep_freed_heap() -> None:
    """Let glibc keep freed memory in this worker instead of returning it.

    Quadrature allocates and frees a ``(21, n)`` temporary per panel; with
    the defaults glibc trims the heap or unmaps each block, and the next
    panel faults the pages in again.  A trim threshold of 1 GiB and an mmap
    threshold of 32 MiB (glibc's 64-bit cap) keep the pages mapped.  Without
    glibc's ``mallopt`` this does nothing; it never raises, since a raising
    initializer breaks the pool.

    A fresh worker is cold, and this is what it pays for.  Measured on a
    2-vCPU x86-64 host: all 28 checks run serially in one fresh process take
    ~51,800 minor faults with glibc's defaults (~43,400 in
    ``commutator_derivative_identity`` alone) and ~2,200 with this setting.
    A pooled ``run_suite("all")`` takes ~82,000 faults in its workers without
    it and ~14,000 with it, a median ~0.60 s of wall time against ~0.50 s.
    Only a second, warm pass in the same process faults little without it.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


def _run_check(name: str) -> CheckResult:
    check_suite, fn = _REGISTRY[name]
    try:
        passed, detail, *slack = fn()
    except Exception as exc:  # honest red: a crash is a failure, not a skip
        passed, detail, slack = False, f"raised {type(exc).__name__}: {exc}", ()
    return CheckResult(name, check_suite, passed, detail, *slack)


def _spiral(count: int, max_radius: float) -> np.ndarray:
    radii = np.linspace(0.02, max_radius, count)
    angles = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    return radii * np.exp(1j * angles)


def _subsample(points: np.ndarray, count: int) -> np.ndarray:
    # the indices are nondecreasing, so dropping each repeat of its predecessor leaves
    # np.unique's; np.unique would import numpy.ma (~15 ms) in a fresh worker
    idx = np.linspace(0, points.size - 1, count).astype(int)
    return points[idx[np.diff(idx, prepend=-1) != 0]]


def _random_self_map_sources(n: int, rng) -> list[str]:
    """Deterministic compositions of shrinking and Mobius factors (as text).

    Every composition includes at least one strictly shrinking factor, so the
    results are strict contractions: an all-automorphism chain would sit at
    Schwarz-Pick equality, where sampled |phi^#| reaches 1 up to cancellation
    noise instead of staying clearly below the bound.
    """
    sources = []
    for _ in range(n):
        x, y = rng.uniform(-0.6, 0.6, 2)
        t = rng.uniform(0.0, 2.0 * math.pi)
        inner = ["z", f"mobius(complex({x:.6f},{y:.6f}))", f"exp({t:.6f}i)*z"]
        expr = inner[int(rng.integers(0, 3))]
        wraps = int(rng.integers(1, 3))
        for step in range(wraps):
            kind = int(rng.integers(0, 3)) if step == 0 else int(rng.integers(0, 4))
            if kind == 0:
                expr = f"({expr})/2"
            elif kind == 1:
                expr = f"({expr})^2/2"
            elif kind == 2:
                b = rng.uniform(-0.4, 0.4)
                expr = f"(({expr})+{b:.6f})/2"
            else:
                u, v = rng.uniform(-0.5, 0.5, 2)
                a, abar = f"complex({u:.6f},{v:.6f})", f"complex({u:.6f},{-v:.6f})"
                expr = f"({a}-({expr}))/(1-{abar}*({expr}))"
        sources.append(expr)
    return sources


def _poly_source(coeffs) -> str:
    terms = []
    for n, c in enumerate(coeffs):
        c = complex(c)
        piece = f"complex({c.real!r},{c.imag!r})"
        if n == 1:
            piece += "*z"
        elif n > 1:
            piece += f"*z^{n}"
        terms.append(piece)
    return "+".join(terms)


def _identity_triples(count: int = 20) -> list[tuple[str, str, str]]:
    return [
        (
            TEN_MAP_PANEL[i % len(TEN_MAP_PANEL)],
            G_CORPUS[i % len(G_CORPUS)],
            BLOCH_F_CORPUS[i % len(BLOCH_F_CORPUS)],
        )
        for i in range(count)
    ]


# --------------------------------------------------------------------------
# identities suite


@_check("series.ring_ops_exact", "identities")
def _series_ring_ops():
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        sizes = rng.integers(1, 9, 3)
        a, b, c = (
            TaylorSeries(rng.integers(-8, 9, n) + 1j * rng.integers(-8, 9, n))
            for n in sizes
        )
        ok = (
            a + b == b + a
            and (a + b) + c == a + (b + c)
            and a * b == b * a
            and (a * b) * c == a * (b * c)
        )
        if not ok:
            return False, "commutativity/associativity broke on integer coefficient series"
    return True, "20 random integer-coefficient triples: add/mul commute and associate exactly"


@_check("series.deriv_antideriv_exact", "identities")
def _series_deriv_antideriv():
    rng = np.random.default_rng(SEED)
    # exact branch: coefficients divisible by their antiderivative denominator
    for _ in range(10):
        n = int(rng.integers(2, 65))
        ints = rng.integers(-8, 9, n) + 1j * rng.integers(-8, 9, n)
        s = TaylorSeries(ints * np.arange(1, n + 1))
        if derivative(antiderivative(s)) != s:
            return False, f"derivative(antiderivative(s)) != s on representable input (N={n})"
        t = TaylorSeries(ints)
        back = antiderivative(derivative(t))
        expected = TaylorSeries(np.concatenate([[0.0], ints[1:]]))
        if back != expected:
            return False, "antiderivative(derivative(s)) != s - a_0 on integer input"
    # tolerance branch: arbitrary float coefficients at N = 16
    worst = 0.0
    for _ in range(10):
        coeffs = rng.uniform(-1, 1, 17) + 1j * rng.uniform(-1, 1, 17)
        s = TaylorSeries(coeffs)
        err = float(np.max(np.abs(derivative(antiderivative(s)).coeffs - coeffs)))
        worst = max(worst, err)
    passed = worst < 1e-14
    return (
        passed,
        f"exact on (n+1)-divisible integer coefficients up to N=64; "
        f"float N=16 max coefficient error {worst:.3e} (tol 1e-14)",
        1e-14 - worst,
    )


@_check("series.recovery_polynomial", "identities")
def _series_recovery():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(10):
        coeffs = rng.uniform(-1, 1, 9) + 1j * rng.uniform(-1, 1, 9)
        s = TaylorSeries(coeffs)
        rec = coeffs_from_samples(s, radius=0.5, count=4 * 8, degree=8)
        worst = max(worst, float(np.max(np.abs(rec.coeffs - coeffs))))
    passed = worst < 1e-10
    return (
        passed,
        f"degree-8 coefficient recovery at radius 0.5, count 32: "
        f"max error {worst:.3e} (tol 1e-10)",
        1e-10 - worst,
    )


@_check("exprdsl.roundtrip_corpus", "identities")
def _exprdsl_roundtrip():
    pts = _spiral(100, 0.97)
    for src in ROUNDTRIP_CORPUS:
        e = parse(src)
        e2 = parse(print_expr(e))
        if not np.array_equal(evaluate(e, pts), evaluate(e2, pts)):
            return False, f"round-trip of {src!r} changed values"
    return (
        True,
        f"{len(ROUNDTRIP_CORPUS)} corpus expressions round-trip bit-for-bit "
        "at 100 sample points",
    )


@_check("exprdsl.derivative_finite_difference", "identities")
def _exprdsl_derivative_fd():
    pts = _spiral(50, 0.8)
    h = FD_STEP
    worst = 0.0
    for src in ROUNDTRIP_CORPUS:
        fn = AnalyticFn(parse(src))
        fd = (fn(pts + h) - fn(pts - h)) / (2 * h)
        cd = fn.deriv(pts)
        rel = np.abs(fd - cd) / (1.0 + np.abs(cd))
        worst = max(worst, float(rel.max()))
    passed = worst < FD_RTOL
    return (
        passed,
        f"symbolic vs central-difference derivative on the corpus at 50 points: "
        f"worst relative error {worst:.3e} (tol {FD_RTOL:g})",
        FD_RTOL - worst,
    )


@_check("operators.commutator_derivative_identity", "identities")
def _commutator_derivative_identity():
    # Shells past k ~ 7 are excluded on purpose: with the 1e-5 step, the
    # finite-difference truncation error of the steepest corpus symbol
    # (log with c = 0.999) already exceeds the 1e-6 tolerance there, while
    # the identity being certified is independent of where it is sampled.
    grid = make_grid(6)
    pts = _subsample(grid.points, 1000)
    h = FD_STEP
    worst = 0.0
    for phi_src, g_src, f_src in _identity_triples():
        phi, g, f = analytic(phi_src), analytic(g_src), analytic(f_src)
        for kind in (OperatorKind.COMMUTATOR_I, OperatorKind.COMMUTATOR_J):
            plus = np.asarray(commutator_value(kind, phi, g, f, pts + h))
            minus = np.asarray(commutator_value(kind, phi, g, f, pts - h))
            fd = (plus - minus) / (2 * h)
            cd = commutator_derivative(kind, phi, g, f, pts)
            rel = np.abs(fd - cd) / (1.0 + np.abs(cd))
            worst = max(worst, float(rel.max()))
    passed = worst < FD_RTOL and pts.size == 1000
    return (
        passed,
        f"20 panel triples, both commutator kinds, {pts.size} grid points: "
        f"worst relative mismatch {worst:.3e} (tol {FD_RTOL:g})",
        FD_RTOL - worst,
    )


@_check("operators.commutator_linearity", "identities")
def _commutator_linearity():
    rng = np.random.default_rng(SEED)
    pts = 0.9 * np.sqrt(rng.uniform(0, 1, 50)) * np.exp(2j * np.pi * rng.uniform(0, 1, 50))
    alpha = 0.7 - 0.2j
    f1, f2 = analytic("mobius(0.5)"), analytic("z^2")
    combo = analytic(f"complex({alpha.real!r},{alpha.imag!r})*(mobius(0.5))+z^2")
    worst = 0.0
    for phi_src, g_src in (("mobius(0.5)", "log(2/(1-0.9*z))"), ("z/2", "z^2")):
        phi, g = analytic(phi_src), analytic(g_src)
        for kind in (OperatorKind.COMMUTATOR_I, OperatorKind.COMMUTATOR_J):
            lhs = commutator_derivative(kind, phi, g, combo, pts)
            rhs = alpha * commutator_derivative(
                kind, phi, g, f1, pts
            ) + commutator_derivative(kind, phi, g, f2, pts)
            rel = np.abs(lhs - rhs) / (1.0 + np.abs(rhs))
            worst = max(worst, float(np.max(rel)))
    passed = worst < 1e-12
    return (
        passed,
        f"commutator derivative linear in f at 50 random points: "
        f"worst relative deviation {worst:.3e} (tol 1e-12)",
        1e-12 - worst,
    )


@_check("operators.quadrature_vs_series", "identities")
def _quadrature_vs_series():
    rng = np.random.default_rng(SEED)
    pts = _spiral(100, 0.95)
    worst = 0.0
    for _ in range(5):
        fc = rng.uniform(-1, 1, 7) + 1j * rng.uniform(-1, 1, 7)
        gc = rng.uniform(-1, 1, 7) + 1j * rng.uniform(-1, 1, 7)
        f, g = analytic(_poly_source(fc)), analytic(_poly_source(gc))
        fs, gs = TaylorSeries(fc), TaylorSeries(gc)
        oracle_J = antiderivative(mul(fs, derivative(gs)))
        oracle_I = antiderivative(mul(derivative(fs), gs))
        err_J = np.abs(np.asarray(apply_Jg(g, f, pts)) - oracle_J(pts))
        err_I = np.abs(np.asarray(apply_Ig(g, f, pts)) - oracle_I(pts))
        worst = max(worst, float(err_J.max()), float(err_I.max()))
    passed = worst < 1e-10
    return (
        passed,
        f"integral operators vs series antiderivative oracle on random "
        f"polynomial pairs at 100 points: max error {worst:.3e} (tol 1e-10)",
        1e-10 - worst,
    )


@_check("harness.report_determinism", "identities")
def _report_determinism():
    spec = ExperimentSpec(
        phi_exprs=("z/2", "mobius(0.5)"),
        g_exprs=("z", "log(2/(1-0.9*z))"),
        theorem_ids=("T3.2", "T4.1b"),
        max_shell=5,
    )
    first = to_json(run_classification(spec).to_dict(include_timing=False))
    second = to_json(run_classification(spec).to_dict(include_timing=False))
    passed = first == second
    return (
        passed,
        "two runs of the same spec emit byte-identical JSON (timing excluded)"
        if passed
        else "reports differ between identical runs",
    )


@_check("harness.panel_composition", "identities")
def _panel_composition():
    grid = make_grid(14)
    problems = []
    if len(AUTOMORPHISM_PANEL) != 8:
        problems.append("automorphism panel must have 8 maps")
    if len(ROTATION_PANEL) != 15:
        problems.append("rotation panel must have 15 maps")
    if len(SHRINKER_PANEL) != 3 or len(TEN_MAP_PANEL) != 10:
        problems.append("shrinker/ten-map panel sizes wrong")
    for src in AUTOMORPHISM_PANEL + ROTATION_PANEL:
        if not validate_self_map(analytic(src), grid).is_automorphism:
            problems.append(f"{src} did not validate as an automorphism")
    for src in SHRINKER_PANEL:
        m = validate_self_map(analytic(src), grid)
        if m.is_automorphism or m.sup_modulus_estimate > 0.99:
            problems.append(f"{src} should be a strict non-automorphic shrinker")
    for needle in ("1", "z", "z^2", "mobius", "log(2/(1-0.5*z))",
                   "log(2/(1-0.9*z))", "log(2/(1-0.999*z))"):
        if not any(needle in g for g in G_CORPUS):
            problems.append(f"g corpus missing {needle}")
    for src in G_CORPUS + BLOCH_F_CORPUS + HINF_F_CORPUS + POLYNOMIAL_G_CORPUS:
        analytic(src)
    passed = not problems
    return (
        passed,
        "; ".join(problems) if problems else
        "panels have the documented sizes, automorphism flags, and symbol shapes",
    )


# --------------------------------------------------------------------------
# bounds suite


def _chain_margins(op, kind, f_corpus, norm, max_shell=14, keep=None):
    """Check ``seminorm <= sup K * norm(f) + CHAIN_TOL`` on the panel pairs ``keep`` accepts.

    ``K`` is the field ``kind`` on ``|phi(z)|`` shells of a ``max_shell``
    grid, ``norm(f, grid)`` is read once per ``f`` on the K=14 grid, each
    map and each symbol is sampled once for all its pairs, each ``f`` once
    per map (the map side holds its factor), and
    ``keep(phi, g, grid, fields)`` selects pairs (all by default).  Returns
    the violations, the min margin and the number of pairs checked.
    """
    norm_grid = make_grid(14)
    family = [analytic(src) for src in f_corpus]
    norms = [float(norm(f, norm_grid)) for f in family]
    grid = make_grid(max_shell)
    symbols = [SymbolFields(analytic(src), grid) for src in G_CORPUS]
    min_margin = math.inf
    violations = pairs = 0
    for phi_src in TEN_MAP_PANEL:
        map_side = MapFields(analytic(phi_src), grid)
        for symbol in symbols:
            fields = FieldSet(map_side, symbol)
            phi, g = fields.phi, fields.g
            if keep is not None and not keep(phi, g, grid, fields):
                continue
            pairs += 1
            sup = fields.report(kind, "phi").sup_value
            seminorms = commutator_seminorms(op, phi, g, family, grid, fields=fields)
            for f_norm, lhs in zip(norms, seminorms):
                margin = sup * f_norm + CHAIN_TOL - lhs.value
                min_margin = min(min_margin, margin)
                violations += margin < 0
    return violations, min_margin, pairs


@_check("operators.chain_bound_I", "bounds")
def _chain_bound_I():
    violations, min_margin, pairs = _chain_margins(
        OperatorKind.COMMUTATOR_I, CriterionKind.KI, BLOCH_F_CORPUS, bloch_seminorm
    )
    return (
        violations == 0,
        f"{pairs * len(BLOCH_F_CORPUS)} cases of "
        f"commutator seminorm <= sup K_I * Bloch seminorm + {CHAIN_TOL:g}: "
        f"{violations} violations, min margin {min_margin:.3e}",
        min_margin,
    )


@_check("operators.chain_bound_J", "bounds")
def _chain_bound_J():
    violations, min_margin, pairs = _chain_margins(
        OperatorKind.COMMUTATOR_J, CriterionKind.KJ, HINF_F_CORPUS, hinf_norm
    )
    return (
        violations == 0,
        f"{pairs * len(HINF_F_CORPUS)} cases of "
        f"commutator seminorm <= sup K_J * sup norm + {CHAIN_TOL:g}: "
        f"{violations} violations, min margin {min_margin:.3e}",
        min_margin,
    )


@_check("criteria.necessity_peak_lower_bound", "bounds")
def _necessity_peak_lower_bound():
    grid = make_grid(5)
    symbols = [SymbolFields(analytic(src), grid) for src in G_CORPUS]
    min_margin = math.inf
    violations = 0
    checked = 0
    for phi_src in TEN_MAP_PANEL:
        map_side = MapFields(analytic(phi_src), grid)
        phi = map_side.phi
        # the outermost |phi| shell's points, in grid order
        segments, _ = map_side.phi_shells
        order = np.arange(grid.size) if segments.order is None else segments.order
        witnesses = grid.points[order[segments.starts[-1]:]]
        stride = max(1, math.ceil(witnesses.size / 64))
        witnesses = DiskGrid(witnesses[::stride])
        at_witnesses = MapFields(phi, witnesses)
        images = [complex(phi(complex(w))) for w in witnesses.points]
        peaks = [make_test_fn(PeakH(a)) for a in images]
        for symbol in symbols:
            fields = FieldSet(map_side, symbol)
            g = symbol.g
            ki = FieldSet(at_witnesses, SymbolFields(g, witnesses)).values(CriterionKind.KI)
            seminorms = commutator_seminorms(OperatorKind.COMMUTATOR_I, phi, g, peaks, grid, fields=fields)
            for a, lhs, ki_w in zip(images, seminorms, ki):
                rhs = abs(a) * float(ki_w) - NECESSITY_TOL
                margin = lhs.value - rhs
                min_margin = min(min_margin, margin)
                violations += margin < 0
                checked += 1
    passed = violations == 0
    return (
        passed,
        f"{checked} outer-shell witnesses across the panel: peak test function "
        f"attains |phi(w)| * K_I(w) - {NECESSITY_TOL:g}; {violations} violations, "
        f"min margin {min_margin:.3e}",
        min_margin,
    )


@_check("testfns.mobius_seminorm_random", "bounds")
def _mobius_seminorm_random():
    rng = np.random.default_rng(SEED)
    grid = make_grid(14)
    worst = 0.0
    for _ in range(20):
        a = 0.9 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        value = float(bloch_seminorm(make_test_fn(MobiusAlpha(complex(a))), grid))
        worst = max(worst, abs(value - 1.0))
    passed = worst <= 1e-6
    return (
        passed,
        f"20 random Mobius seminorms: worst |value - 1| = {worst:.3e} (tol 1e-6)",
        1e-6 - worst,
    )


@_check("testfns.peak_seminorm_and_decay", "bounds")
def _peak_seminorm_and_decay():
    rng = np.random.default_rng(SEED)
    grid = make_grid(14)
    worst = -math.inf
    for _ in range(20):
        a = 0.9 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        value = float(bloch_seminorm(make_test_fn(PeakH(complex(a))), grid))
        worst = max(worst, value)
    circle = 0.5 * np.exp(2j * np.pi * np.arange(256) / 256)
    maxima = []
    for a in (0.9, 0.99, 0.999):
        h = make_test_fn(PeakH(a))
        maxima.append(float(np.max(np.abs(h(circle)))))
        worst = max(worst, float(bloch_seminorm(h, grid)))
    monotone = maxima[0] > maxima[1] > maxima[2]
    passed = worst <= 1.0 + 1e-9 and monotone
    return (
        passed,
        f"peak seminorms max {worst:.12f} (bound 1+1e-9); max on |z|<=0.5 for "
        f"a=0.9,0.99,0.999: {maxima[0]:.4f} > {maxima[1]:.4f} > {maxima[2]:.4f} "
        f"{'holds' if monotone else 'FAILS'}",
        1.0 + 1e-9 - worst,
    )


@_check("testfns.log_family_seminorm", "bounds")
def _log_family_seminorm():
    rng = np.random.default_rng(SEED)
    grid = make_grid(14)
    worst = -math.inf
    params = [0.95 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
              for _ in range(20)] + [0.999]
    for w in params:
        value = float(bloch_seminorm(make_test_fn(LogFw(complex(w))), grid))
        worst = max(worst, value)
    passed = worst <= 2.0 + 1e-9
    return (
        passed,
        f"log family seminorms over 21 parameters: max {worst:.12f} (bound 2+1e-9)",
        2.0 + 1e-9 - worst,
    )


@_check("testfns.product_family_hinf", "bounds")
def _product_family_hinf():
    rng = np.random.default_rng(SEED)
    grid = make_grid(14)
    worst_zero = 0.0
    worst_sup = -math.inf
    for _ in range(10):
        a = complex(0.9 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))
        f = make_test_fn(ProductF(a))
        worst_zero = max(worst_zero, abs(complex(f(a))))
        worst_sup = max(worst_sup, float(hinf_norm(f, grid)))
    passed = worst_zero <= 1e-12 and worst_sup <= 2.0 + 1e-9
    return (
        passed,
        f"product family: |f(a)| max {worst_zero:.3e} (tol 1e-12), "
        f"sup norm max {worst_sup:.12f} (bound 2+1e-9)",
        2.0 + 1e-9 - worst_sup,
    )


_INTERPOLATION_NODES = [0.5, 0.75, 0.875, 0.96875, 0.984375]


@_check("testfns.interpolation_sum_bound", "bounds")
def _interpolation_sum_bound():
    radial = [1.0 - 2.0 ** (-k) for k in range(1, 11)]
    nodes = select_separated_subsequence(radial, 0.1)[:5]
    if nodes != _INTERPOLATION_NODES:
        return False, f"selector kept {nodes} at d=0.1, expected {_INTERPOLATION_NODES}"
    grid = make_grid(14)
    fam = build_interpolation_family(nodes, 0.1, grid=grid)
    kron = max(
        abs(complex(h(x)) - (1.0 if j == k else 0.0))
        for k, h in enumerate(fam.peaks)
        for j, x in enumerate(fam.nodes)
    )
    resampled = float(np.max(fam.sum_of_moduli(grid.points)))
    fam_fine = build_interpolation_family(nodes, 0.1, grid=make_grid(16))
    drift = abs(fam_fine.sum_bound_estimate - fam.sum_bound_estimate) / fam.sum_bound_estimate
    passed = (
        kron <= 1e-10
        and resampled <= fam.sum_bound_estimate + 1e-12
        and fam_fine.sum_bound_estimate >= fam.sum_bound_estimate
        and drift <= 0.05
        and 1.0 < fam.sum_bound_estimate < math.inf
    )
    return (
        passed,
        f"5-node family: Kronecker error {kron:.3e} (tol 1e-10), "
        f"M = {fam.sum_bound_estimate:.6f} (> 1), refinement drift {drift:.3%} (tol 5%)",
        0.05 - drift,
    )


@_check("diskgeom.schwarz_pick_random_maps", "bounds")
def _schwarz_pick_random_maps():
    rng = np.random.default_rng(SEED)
    grid = make_grid(14)
    worst = -math.inf
    for src in _random_self_map_sources(100, rng):
        worst = max(worst, float(np.max(MapFields(analytic(src), grid).phi_sharp)))
    passed = worst <= 1.0 + 1e-12
    return (
        passed,
        f"100 random composed self-maps: max |schwarz derivative| = {worst:.15f} "
        f"(bound 1+1e-12)",
        1.0 + 1e-12 - worst,
    )


@_check("diskgeom.schwarz_automorphism_equality", "bounds")
def _schwarz_automorphism_equality():
    grid = make_grid(14)
    worst = 0.0
    for src in AUTOMORPHISM_PANEL:
        sharp = MapFields(analytic(src), grid).phi_sharp
        worst = max(worst, float(np.max(np.abs(sharp - 1.0))))
    passed = worst <= 1e-9
    return (
        passed,
        f"8 automorphisms: max | |schwarz derivative| - 1 | = {worst:.3e} (tol 1e-9)",
        1e-9 - worst,
    )


@_check("diskgeom.modulus_bound_panel", "bounds")
def _modulus_bound_panel():
    rng = np.random.default_rng(SEED)
    grid = make_grid(14)
    worst = -math.inf
    sources = list(TEN_MAP_PANEL) + _random_self_map_sources(100, rng)
    for src in sources:
        side = MapFields(analytic(src), grid)
        actual = side.moduli
        bound = schwarz_pick_modulus_bound(side.phi, grid.points)
        worst = max(worst, float(np.max(actual - bound)))
    passed = worst <= 1e-12
    return (
        passed,
        f"{len(sources)} validated maps: max |phi(z)| excess over the "
        f"(|z|+s)/(1+s|z|) bound = {worst:.3e} (tol 1e-12)",
        1e-12 - worst,
    )


# --------------------------------------------------------------------------
# theorems suite

_CURATED_CASES = (
    ("T3.2", "z/2", "z"),
    ("T3.2", "z/2", "log(2/(1-0.999*z))"),
    ("T3.2", "mobius(0.5)", "z"),
    ("T4.1a", "mobius(0.5)", "log(2/(1-0.999*z))"),
    ("T4.9", "z/2", "z"),
)

_FORBIDDEN_FLIP = {Conclusion.COMPACT, Conclusion.NOT_COMPACT_EVIDENCE}


@_check("criteria.grid_monotonicity", "theorems")
def _grid_monotonicity():
    phis = {src: analytic(src) for _, src, _ in _CURATED_CASES}
    gs = {src: analytic(src) for _, _, src in _CURATED_CASES}
    verdicts = {case: [] for case in _CURATED_CASES}  # a case's verdict on each grid in turn
    for k in (6, 8, 10, 12, 14):
        grid = make_grid(k)
        # one side per map, one side per symbol and one set per pair on this grid
        maps = {src: MapFields(phi, grid) for src, phi in phis.items()}
        symbols = {src: SymbolFields(g, grid) for src, g in gs.items()}
        pairs = {(p, g): FieldSet(maps[p], symbols[g])
                 for p, g in dict.fromkeys((p, g) for _, p, g in _CURATED_CASES)}
        for case in _CURATED_CASES:
            theorem_id, phi_src, g_src = case
            fields = pairs[phi_src, g_src]
            verdicts[case].append((k, classify(theorem_id, fields.phi, fields.g, grid, fields=fields)))
    problems = []
    for (theorem_id, phi_src, g_src), runs in verdicts.items():
        previous = None
        for k, verdict in runs:
            sup = verdict.main.sup_value
            if previous is not None:
                prev_sup, prev_conc = previous
                if sup < prev_sup:
                    problems.append(
                        f"{theorem_id}/{phi_src}/{g_src}: sup fell {prev_sup:.6g} -> "
                        f"{sup:.6g} at K={k}"
                    )
                if {prev_conc, verdict.conclusion} == _FORBIDDEN_FLIP:
                    problems.append(
                        f"{theorem_id}/{phi_src}/{g_src}: {prev_conc.value} -> "
                        f"{verdict.conclusion.value} at K={k}"
                    )
            previous = (sup, verdict.conclusion)
    passed = not problems
    return (
        passed,
        "; ".join(problems) if problems else
        f"{len(_CURATED_CASES)} curated cases over K=6..14: sup estimates "
        "monotone, no compact/not-compact flips",
    )


@_check("criteria.bounded_implies_chain", "theorems")
def _bounded_implies_chain():
    def bounded(phi, g, grid, fields):
        return classify("T3.1", phi, g, grid, fields=fields).conclusion is Conclusion.BOUNDED

    violations, min_margin, bounded_cases = _chain_margins(
        OperatorKind.COMMUTATOR_I, CriterionKind.KI, BLOCH_F_CORPUS, bloch_seminorm, 8, bounded
    )
    return (
        violations == 0 and bounded_cases > 0,
        f"{bounded_cases} panel pairs judged bounded; seminorm chain holds for "
        f"every corpus f with min margin {min_margin:.3e}",
        min_margin,
    )


@_check("criteria.rigidity_nonconstant_g", "theorems")
def _rigidity_nonconstant_g():
    grid = make_grid(14)
    automorphisms = [(src, MapFields(analytic(src), grid))
                     for src in AUTOMORPHISM_PANEL]
    symbols = {src: SymbolFields(analytic(src), grid) for src in G_CORPUS}
    problems = []
    constant = [src for src, symbol in symbols.items() if not symbol.g.expr.depends_on_z()]
    if len(constant) != 2 or len(G_CORPUS) != 9:
        problems.append(f"corpus has {len(constant)} constant of {len(G_CORPUS)} g, "
                        "expected 2 of 9")
    for g_src, symbol in symbols.items():
        if g_src in constant:
            for _, map_side in automorphisms:
                values = FieldSet(map_side, symbol).values(CriterionKind.KI)
                if float(np.max(np.abs(values))) != 0.0:
                    problems.append(f"constant g={g_src}: K_I not identically zero")
                    break
            continue
        witness = None
        for phi_src, map_side in automorphisms:
            fields = FieldSet(map_side, symbol)
            verdict = classify("T3.2", map_side.phi, symbol.g, grid, fields=fields)
            if verdict.conclusion is Conclusion.NOT_COMPACT_EVIDENCE:
                witness = phi_src
                break
        if witness is None:
            problems.append(f"non-constant g={g_src}: no automorphism gave "
                            "not-compact evidence")
    passed = not problems
    return (
        passed,
        "; ".join(problems) if problems else
        "each of the 7 non-constant corpus g has a witnessing automorphism; "
        "the 2 constant g give K_I identically 0",
    )


@_check("criteria.little_bloch_sufficiency", "theorems")
def _little_bloch_sufficiency():
    grid = make_grid(16)
    maps = [(src, MapFields(analytic(src), grid)) for src in TEN_MAP_PANEL]
    symbols = {src: SymbolFields(analytic(src), grid)
               for src in dict.fromkeys(G_CORPUS + POLYNOMIAL_G_CORPUS)}
    members = [src for src, symbol in symbols.items()
               if little_bloch_membership(symbol.g, grid, fields=symbol) is Membership.IN_B0]
    problems = [f"polynomial g={g_src}: not a little-Bloch member"
                for g_src in POLYNOMIAL_G_CORPUS if g_src not in members]
    for g_src in members:
        symbol = symbols[g_src]
        for phi_src, map_side in maps:
            fields = FieldSet(map_side, symbol)
            verdict = classify("T4.1b", map_side.phi, symbol.g, grid, fields=fields)
            if verdict.conclusion is not Conclusion.COMPACT:
                problems.append(
                    f"g={g_src}, phi={phi_src}: {verdict.conclusion.value}"
                )
    passed = not problems and len(members) >= 10
    return (
        passed,
        "; ".join(problems) if problems else
        f"{len(members)} little-Bloch members (all {len(POLYNOMIAL_G_CORPUS)} polynomial g "
        f"among them) x {len(TEN_MAP_PANEL)} maps all classify compact",
    )


@_check("criteria.rotation_necessity", "theorems")
def _rotation_necessity():
    grid = make_grid(14)
    symbol = SymbolFields(analytic("log(2/(1-z))"), grid)
    witness = None
    for phi_src in ROTATION_PANEL:
        fields = FieldSet(MapFields(analytic(phi_src), grid), symbol)
        verdict = classify("T4.1b", fields.phi, fields.g, grid, fields=fields)
        if verdict.conclusion is Conclusion.NOT_COMPACT_EVIDENCE:
            witness = phi_src
            break
    passed = witness is not None
    return (
        passed,
        f"Bloch-not-little-Bloch log symbol: rotation {witness} gives "
        "not-compact evidence" if passed else
        "no rotation produced not-compact evidence for the log symbol",
    )


def _hospital_slack(k: int, phi0_modulus: float) -> float:
    """How far the shell-``k`` maximum of the boundary log-ratio may exceed 1.

    The ratio (ln2 - ln(1-|phi(z)|^2)) / (ln2 - ln(1-|z|^2)) tends to 1 along
    |z| -> 1 for every self-map.  The allowed excess combines a resolution
    term 0.1 * 2^(-k/2) with the exact finite-radius correction
    ln((1+s)/(1-s)) / (ln2 - ln(1-r_k^2)) forced by the modulus bound
    |phi(z)| <= (|z|+s)/(1+|z|s), s = |phi(0)|; the second term vanishes in
    the limit and is identically 0 when phi fixes 0.
    """
    s = phi0_modulus
    denom = math.log(2.0 / (1.0 - shell_radius(k) ** 2))
    extra = math.log((1.0 + s) / (1.0 - s)) / denom if s > 0.0 else 0.0
    return 0.1 * 2.0 ** (-k / 2.0) + extra


@_check("harness.hospital_ratio_panel", "theorems")
def _hospital_ratio_panel():
    grid = make_grid(14)
    den = np.log(2.0 / grid.one_minus)
    min_margin = math.inf
    failures = []
    for src in TEN_MAP_PANEL + ROTATION_PANEL:
        side = MapFields(analytic(src), grid)
        ratio = side.log_factor / den
        s = abs(complex(side.phi(0.0)))
        max_excess = max(shell_max - (1.0 + _hospital_slack(k, s))
                         for k, shell_max in shell_maxima(ratio, grid.segments))
        min_margin = min(min_margin, -max_excess)
        if not max_excess <= 0.0:
            failures.append(src)
    passed = not failures
    return (
        passed,
        f"boundary log-ratio within slack for {len(TEN_MAP_PANEL + ROTATION_PANEL)} "
        f"maps; min margin {min_margin:.3e}" if passed else
        f"ratio exceeded slack for: {', '.join(failures)}",
        min_margin,
    )


@_check("harness.rotation_average_coherence", "theorems")
def _rotation_average_coherence():
    # A symbol is coherent unless every rotation's KJ criterion reads compact
    # while its Bloch field shows evidence against B0; the first rotation that
    # does not read compact is its witness.  With t_k = 2 pi k / 16, the
    # average of the 16 rotated derivatives g'(e^{i t_k} z) e^{i t_k} is the
    # aliased sub-series A(z) = sum over 16 | n of n a_n z^{n-1}, so
    #     mean_k (1-|z|^2)|g'(e^{i t_k} z) e^{i t_k} - g'(z)| >= (1-|z|^2)|A(z) - g'(z)|,
    # where term k is the KJ field of the rotation by t_k (term 0 is 0) and the
    # a_n are recovered from circle samples.  The inequality is checked for
    # |z| <= 0.75, where the degree-capped truncation tail is negligible.
    grid = make_grid(14)
    rotations = [(t, MapFields(analytic(src), grid))
                 for t, src in zip(ROTATION_ANGLES, ROTATION_PANEL)]
    inner = np.abs(grid.points) <= 0.75
    pts, one_minus = grid.points[inner], grid.one_minus[inner]
    rows = []
    worst_defect = -math.inf
    all_consistent = True
    for g_src in ("z^2", "complex(0.25,-0.5)", "log(2/(1-0.9*z))", "log(2/(1-0.999*z))"):
        g = analytic(g_src)
        symbol = SymbolFields(g, grid)
        witness_t = None
        total = np.zeros(pts.shape)
        for t, rotation in rotations:
            fields = FieldSet(rotation, symbol)
            total += fields.values(CriterionKind.KJ)[inner]
            if witness_t is None:
                report = fields.report(CriterionKind.KJ, "phi")
                if read_tail(report, DEFAULT_THRESHOLDS, limit=True) is not Conclusion.COMPACT:
                    witness_t = t
        if witness_t is not None:
            rows.append(f"{g_src}: Witness(t={witness_t:.6g})")
        elif little_bloch_membership(g, grid, fields=symbol) is Membership.NOT_IN_B0_EVIDENCE:
            all_consistent = False
            rows.append(f"{g_src}: Inconsistent")
        else:
            rows.append(f"{g_src}: ConsistentWithB0")
        series = coeffs_from_samples(g, radius=0.5, count=recovery_count(64), degree=64)
        dg = symbol.dg_z[inner]
        aliased = np.zeros(pts.shape, dtype=complex)
        for n in range(16, series.degree_bound + 1, 16):
            aliased += n * series.coeffs[n] * pts ** (n - 1)
        defect = float(np.max(one_minus * np.abs(aliased - dg) - total / 16.0))
        worst_defect = max(worst_defect, defect)
    passed = all_consistent and worst_defect <= 1e-8
    return (
        passed,
        f"membership/rotation coherence holds ({'; '.join(rows)}); "
        f"worst averaging defect {worst_defect:.3e} (tol 1e-8)",
        1e-8 - worst_defect,
    )
