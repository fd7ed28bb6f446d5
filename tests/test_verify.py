"""The self-check registry: selection, execution, result shape and pinned outputs.

``data/verify_golden.json`` holds every check's name, suite, pass flag,
detail text and ``repr(slack)``.  Regenerate it (only when a check is meant
to change) with ``PYTHONPATH=src python tests/test_verify.py``.
"""

import ast
import collections
import ctypes
import json
import multiprocessing
import os
import pathlib
import resource
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from blochlab import (
    AUTOMORPHISM_PANEL,
    BLOCH_F_CORPUS,
    G_CORPUS,
    HINF_F_CORPUS,
    POLYNOMIAL_G_CORPUS,
    ROTATION_PANEL,
    TEN_MAP_PANEL,
    AnalyticFn,
    available_checks,
    make_grid,
    operators,
    run_suite,
    verify,
)
from blochlab.verify import SUITES

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "verify_golden.json"
GOLDEN = {row["name"]: row for row in json.loads(GOLDEN_PATH.read_text())}


def _golden_row(result) -> dict:
    return {
        "name": result.name,
        "suite": result.suite,
        "passed": result.passed,
        "detail": result.detail,
        "slack": None if result.slack is None else repr(result.slack),
    }


def test_registry_covers_three_suites():
    assert SUITES == ("identities", "bounds", "theorems")
    names = available_checks()
    assert len(names) == 28
    assert len(set(names)) == len(names)
    for suite in SUITES:
        subset = available_checks(suite)
        assert subset, f"suite {suite} is empty"
        assert set(subset) <= set(names)
    assert sum(len(available_checks(s)) for s in SUITES) == len(names)


def test_single_check_runs_and_serializes():
    results = run_suite("identities", name_filter="series.ring_ops")
    assert len(results) == 1
    res = results[0]
    assert res.passed, res.detail
    data = res.to_dict()
    assert data["name"] == "series.ring_ops_exact"
    assert data["suite"] == "identities"
    assert data["passed"] is True
    assert isinstance(data["detail"], str) and data["detail"]


def test_filter_matches_substring():
    names = [r.name for r in run_suite("identities", name_filter="series.")]
    assert names == [n for n in available_checks("identities") if "series." in n]


def test_golden_lists_every_check_in_order():
    assert list(GOLDEN) == available_checks()


@pytest.mark.parametrize("name", available_checks())
def test_every_check_passes(name):
    (result,) = run_suite("all", name_filter=name)
    assert result.name == name
    assert result.passed, result.detail
    assert _golden_row(result) == GOLDEN[name]


def test_full_suite_matches_the_golden_file(monkeypatch):
    # two usable CPUs, so the checks run in forked workers on any host
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    rows = [_golden_row(result) for result in run_suite("all")]
    assert rows == [GOLDEN[name] for name in available_checks()]
    assert multiprocessing.active_children() == []


def test_hospital_slack_widens_with_offset():
    # the finite-radius term is 0 when phi fixes 0 and grows with |phi(0)|
    for k in range(15):
        slacks = [verify._hospital_slack(k, s) for s in (0.0, 0.15, 0.5)]
        assert slacks[0] == 0.1 * 2.0 ** (-k / 2.0)
        assert slacks[0] < slacks[1] < slacks[2]


def _register(monkeypatch, name, fn):
    # a temporary check in the identities suite, removed when the test ends
    monkeypatch.setitem(verify._REGISTRY, name, ("identities", fn))


def test_a_raising_check_is_a_failed_row_in_a_worker(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    _register(monkeypatch, "zz_pool.pid", lambda: (True, str(os.getpid())))
    _register(monkeypatch, "zz_pool.raises", lambda: (True, str(1 / 0)))
    ran, raised = run_suite("identities", name_filter="zz_pool.")
    assert ran.passed and ran.detail != str(os.getpid())
    assert (raised.name, raised.passed) == ("zz_pool.raises", False)
    assert raised.detail == "raised ZeroDivisionError: division by zero"
    assert multiprocessing.active_children() == []


def test_a_dying_worker_breaks_the_suite(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    caller = os.getpid()
    _register(monkeypatch, "zz_pool.passes", lambda: (True, "ok"))
    # exits only in a worker: run here, it would end the test process
    _register(monkeypatch, "zz_pool.exits", lambda: os.getpid() == caller or os._exit(3))
    start = time.perf_counter()
    with pytest.raises(BrokenProcessPool):
        run_suite("identities", name_filter="zz_pool.")
    assert time.perf_counter() - start < 10.0
    assert multiprocessing.active_children() == []


def _pids_of_two_checks(monkeypatch) -> list[str]:
    for name in ("zz_pool.first", "zz_pool.second"):
        _register(monkeypatch, name, lambda: (True, str(os.getpid())))
    return [r.detail for r in run_suite("identities", name_filter="zz_pool.")]


def test_one_usable_cpu_runs_the_checks_here(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _pids_of_two_checks(monkeypatch) == [str(os.getpid())] * 2


def test_a_caller_with_threads_runs_the_checks_here(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        pids = _pids_of_two_checks(monkeypatch)
    finally:
        release.set()
        waiter.join(timeout=10.0)
    assert not waiter.is_alive()
    assert pids == [str(os.getpid())] * 2


def _faults_of_freed_arrays():
    # touch and free 2 MB fifty times; each pass re-faults it if the heap is trimmed
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(50):
        arrays = [np.ones(16000, complex) for _ in range(8)]
        del arrays
    return True, str(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="no glibc mallopt")
def test_a_pooled_worker_keeps_its_freed_heap(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    for name in ("zz_pool.first", "zz_pool.second"):
        _register(monkeypatch, name, _faults_of_freed_arrays)
    faults = [int(r.detail) for r in run_suite("identities", name_filter="zz_pool.")]
    # ~23,500 faults each with glibc's defaults, ~550 with the heap kept
    assert all(count < 2000 for count in faults), faults


def test_a_pool_without_mallopt_still_runs(monkeypatch):
    opened = []
    # a C library without mallopt; a forked worker records its own calls
    monkeypatch.setattr(ctypes, "CDLL", lambda name: opened.append(name) or object())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    for name in ("zz_pool.first", "zz_pool.second"):
        _register(monkeypatch, name, lambda: (True, repr(opened)))
    rows = run_suite("identities", name_filter="zz_pool.")
    assert [(r.name, r.passed, r.detail) for r in rows] == [
        ("zz_pool.first", True, "[None]"),
        ("zz_pool.second", True, "[None]"),
    ]
    assert opened == []  # the caller's allocator is left alone
    assert multiprocessing.active_children() == []


def test_checks_share_no_cache():
    # every check builds its own inputs, so a run alone equals a run after others
    tree = ast.parse(pathlib.Path(verify.__file__).read_text())
    names = {
        getattr(node, field)
        for node in ast.walk(tree)
        for field in ("id", "attr", "name")  # ast.Name, ast.Attribute, ast.alias
        if isinstance(getattr(node, field, None), str)
    }
    assert names.isdisjoint({"lru_cache", "cache", "cached_property"})


def test_every_grid_of_a_check_names_its_depth():
    # a check on make_grid(), or on an interpolation family sampled on it, would move its
    # golden row with diskgeom.DEFAULT_MAX_SHELL
    tree = ast.parse(pathlib.Path(verify.__file__).read_text())
    depth = {"make_grid": (0, "max_shell"), "build_interpolation_family": (2, "grid")}
    found = [
        f"{node.lineno} {node.func.id}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in depth
        and len(node.args) <= depth[node.func.id][0]
        and all(kw.arg != depth[node.func.id][1] for kw in node.keywords)
    ]
    assert found == []


def _grid_calls(monkeypatch, name: str):
    """Run check ``name``, counting its expression calls on as many points as one of its grids.

    A call is keyed by the function's source (the function itself where it
    has none), its derivative order (``"f"`` or ``"f'"``) and its points:
    ``"z"`` for a grid's own points, ``"w"`` for any other set of that size,
    such as ``phi(z)``.  Calls on a 1-D set of points of any other size,
    such as a check's witnesses, are counted apart, by the same key with
    ``"few"`` as its points.  The check's golden row must hold.
    """
    grids, calls, few = [], collections.Counter(), collections.Counter()

    def making(*args):
        grids.append(make_grid(*args))
        return grids[-1]

    def counting(method, label):
        def wrapper(self, z):
            if any(np.size(z) == grid.size for grid in grids):
                points = "z" if any(z is grid.points for grid in grids) else "w"
                calls[(vars(self).get("source", self), label, points)] += 1
            elif np.ndim(z) == 1:
                few[(vars(self).get("source", self), label, "few")] += 1
            return method(self, z)

        return wrapper

    monkeypatch.setattr(verify, "make_grid", making)
    monkeypatch.setattr(AnalyticFn, "__call__", counting(AnalyticFn.__call__, "f"))
    monkeypatch.setattr(AnalyticFn, "deriv", counting(AnalyticFn.deriv, "f'"))
    result = verify._run_check(name)
    monkeypatch.undo()
    assert _golden_row(result) == GOLDEN[name]
    return grids, calls, few


def _each(sources, *calls) -> collections.Counter:
    """Every source called as ``calls`` say, each an ``(order, points, count)`` triple."""
    out = collections.Counter()
    for src in sources:
        for order, points, count in calls:
            out[(src, order, points)] += count
    return out


#: a validated map side: phi(z) once, in validation, and phi'(z) once
_MAP = (("f", "z", 1), ("f'", "z", 1))
_TEN_MAPS = _each(TEN_MAP_PANEL, *_MAP)
_KI_SYMBOLS = _each(G_CORPUS, ("f", "z", 1), ("f", "w", len(TEN_MAP_PANEL)))
_KJ_SYMBOLS = _each(G_CORPUS, ("f'", "z", 1), ("f'", "w", len(TEN_MAP_PANEL)))
_BLOCH_TESTS = _each(BLOCH_F_CORPUS, ("f'", "z", 1), ("f'", "w", len(TEN_MAP_PANEL)))
_ALL_SYMBOLS = list(dict.fromkeys(G_CORPUS + POLYNOMIAL_G_CORPUS))
_STEEP = "log(2/(1-0.999*z))"  # the one symbol that is no little-Bloch member
_CONSTANT = ("1", "complex(0.25,-0.5)")

#: necessity_peak_lower_bound at its witnesses: phi and phi' once per map, g and g o phi
#: once per pair
_WITNESSES = (_each(TEN_MAP_PANEL, ("f", "few", 1), ("f'", "few", 1))
              + _each(G_CORPUS, ("f", "few", 2 * len(TEN_MAP_PANEL))))

#: (check, its calls by a named function, peak functions each sampled once, total calls,
#: its calls on smaller point sets)
_PAIR_LOOP_CALLS = [
    ("operators.chain_bound_I", _TEN_MAPS + _KI_SYMBOLS + _BLOCH_TESTS, 0, 185, {}),
    # "w": each map's phi(z) and hinf_norm's circle, which is as large as the grid
    ("operators.chain_bound_J",
     _TEN_MAPS + _KJ_SYMBOLS + _each(HINF_F_CORPUS, ("f", "z", 1), ("f", "w", 11)), 0, 191, {}),
    ("criteria.bounded_implies_chain", _TEN_MAPS + _KI_SYMBOLS + _BLOCH_TESTS, 0, 185, {}),
    ("criteria.necessity_peak_lower_bound", _TEN_MAPS + _KI_SYMBOLS, 602, 721, _WITNESSES),
    ("criteria.little_bloch_sufficiency",
     _TEN_MAPS + _each(_ALL_SYMBOLS, ("f'", "z", 1))
     + _each([s for s in _ALL_SYMBOLS if s != _STEEP], ("f'", "w", len(TEN_MAP_PANEL))),
     0, 142, {}),
    # each non-constant symbol finds its witness at the first automorphism
    ("criteria.rigidity_nonconstant_g",
     _each(AUTOMORPHISM_PANEL, *_MAP) + _each(G_CORPUS, ("f", "z", 1))
     + _each(_CONSTANT, ("f", "w", len(AUTOMORPHISM_PANEL)))
     + _each([s for s in G_CORPUS if s not in _CONSTANT], ("f", "w", 1)), 0, 48, {}),
]


@pytest.mark.parametrize("name, named, peaks, total, witnesses", _PAIR_LOOP_CALLS,
                         ids=[row[0] for row in _PAIR_LOOP_CALLS])
def test_pair_loops_sample_each_map_symbol_and_test_function_once(monkeypatch, name, named,
                                                                  peaks, total, witnesses):
    """Each map and each symbol once per check, each pair's compositions once, each test
    function once per map.  The two chain bounds, bounded_implies_chain,
    necessity_peak_lower_bound and little_bloch_sufficiency make 1,424 grid-sized calls
    (1,474 when each map side sampled phi again after validating it, 8,261 when each pair
    sampled both sides and each test function per pair); rigidity 48 (56, 100).  necessity_peak_lower_bound makes 200 calls at its witnesses (360 when each pair
    sampled its map there), and no other check calls on a smaller set of points."""
    _, calls, few = _grid_calls(monkeypatch, name)
    assert few == witnesses
    assert sum(few.values()) == (200 if witnesses else 0)
    assert collections.Counter({k: n for k, n in calls.items() if isinstance(k[0], str)}) == named
    unnamed = [(k[1:], n) for k, n in calls.items() if not isinstance(k[0], str)]
    assert len(unnamed) == peaks and set(unnamed) <= {(("f'", "w"), 1)}
    assert sum(calls.values()) == total


def test_rotation_check_samples_each_rotation_and_symbol_once(monkeypatch):
    """rotation_average_coherence: phi (in its validation) and phi' once per rotation,
    g' once per symbol (B0 membership reads the shared side), g' o phi once per pair:
    94 grid-sized expression calls (109 when each rotation's side sampled phi again after
    validating it, 258 when each pair sampled both sides).  The
    averaging bound reads g' and 1-|z|^2 at its inner points from the symbol side and
    the grid, so no call is made on a smaller point set (4 when it sampled g' there)."""
    grids, calls, few = _grid_calls(monkeypatch, "harness.rotation_average_coherence")
    assert len(grids) == 1 and not few
    expected = _each(ROTATION_PANEL, *_MAP)
    for g_src in ("z^2", "complex(0.25,-0.5)", "log(2/(1-0.9*z))", "log(2/(1-0.999*z))"):
        expected.update({(g_src, "f'", "z"): 1, (g_src, "f'", "w"): 15})
    assert calls == expected
    assert sum(calls.values()) == 94


def test_rotation_necessity_samples_its_witness_rotation_and_symbol_once(monkeypatch):
    """rotation_necessity stops at its first rotation: phi (in its validation) and phi' once,
    g' and g' o phi once: 4 grid-sized expression calls (5 when the rotation's phi(z) was
    sampled again after validating it)."""
    grids, calls, few = _grid_calls(monkeypatch, "criteria.rotation_necessity")
    assert len(grids) == 1 and not few
    symbol = _each(("log(2/(1-z))",), ("f'", "z", 1), ("f'", "w", 1))
    assert calls == _each(ROTATION_PANEL[:1], *_MAP) + symbol
    assert sum(calls.values()) == 4


def test_grid_monotonicity_samples_each_map_symbol_and_pair_once_per_grid(monkeypatch):
    """grid_monotonicity on each of its five grids: phi (in its validation) and phi' once
    per map, the symbol's own samples once per symbol, g o phi or g' o phi once per pair,
    though z/2 serves three cases and (z/2, z) two: 60 grid-sized expression calls (110
    when each case validated and sampled its map and symbol on each grid again)."""
    grids, calls, few = _grid_calls(monkeypatch, "criteria.grid_monotonicity")
    assert len(grids) == 5 and not few
    per_grid = (_each(("z/2", "mobius(0.5)"), *_MAP)
                + _each(("z", _STEEP), ("f", "z", 1), ("f'", "z", 1))
                + _each(("z",), ("f", "w", 2)) + _each((_STEEP,), ("f", "w", 1), ("f'", "w", 1)))
    assert calls == collections.Counter({key: 5 * n for key, n in per_grid.items()})
    assert sum(calls.values()) == 60


_RANDOM_MAPS = verify._random_self_map_sources(100, np.random.default_rng(verify.SEED))


@pytest.mark.parametrize("name, named", [
    ("diskgeom.schwarz_pick_random_maps", _each(_RANDOM_MAPS, ("f", "z", 1), ("f'", "z", 1))),
    ("diskgeom.modulus_bound_panel", _each(list(TEN_MAP_PANEL) + _RANDOM_MAPS, ("f", "z", 1))),
], ids=["schwarz_pick_random_maps", "modulus_bound_panel"])
def test_map_checks_sample_each_map_once(monkeypatch, name, named):
    """Validation's samples of phi serve as the map side's: one phi call per map on the grid
    (two when the check sampled phi again after validating it), and phi' once for phi#."""
    grids, calls, few = _grid_calls(monkeypatch, name)
    assert len(grids) == 1 and not few
    assert calls == named


def test_identity_check_samples_at_most_four_and_a_half_million_integrand_points(monkeypatch):
    """21 samples per accepted panel where the old rule took 48 (16 on the panel, 16 on each half):
    4,422,768 integrand samples (7,968,512 with Gauss-Legendre on a panel and its halves)."""
    samples = [0]
    integrate = operators._integrate_radial

    def counting(h, z):
        def sampled(u):
            samples[0] += np.size(u)
            return h(u)

        return integrate(sampled, z)

    monkeypatch.setattr(operators, "_integrate_radial", counting)
    result = verify._run_check("operators.commutator_derivative_identity")
    monkeypatch.undo()
    assert _golden_row(result) == GOLDEN["operators.commutator_derivative_identity"]
    assert 0 < samples[0] <= 4_500_000


def test_unknown_suite_rejected():
    for select in (available_checks, run_suite):
        with pytest.raises(ValueError, match="unknown suite 'identites'"):
            select("identites")


def test_empty_selection_rejected():
    with pytest.raises(ValueError, match="no checks match"):
        run_suite("identities", name_filter="zzz_nothing")


if __name__ == "__main__":
    rows = [_golden_row(result) for result in run_suite("all")]
    GOLDEN_PATH.write_text(json.dumps(rows, indent=1) + "\n")
