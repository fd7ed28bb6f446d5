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

from blochlab import ROTATION_PANEL, AnalyticFn, available_checks, make_grid, run_suite, verify
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


def test_rotation_check_samples_each_rotation_and_symbol_once(monkeypatch):
    """rotation_average_coherence: phi and phi' once per rotation (and its validation),
    g' once per symbol (twice where B0 membership is read), g' o phi once per pair:
    112 grid-sized expression calls (258 when each pair sampled both sides)."""
    grids, calls = [], collections.Counter()

    def making(*args):
        grids.append(make_grid(*args))
        return grids[-1]

    def counting(method, label):
        def wrapper(self, z):
            if np.size(z) == grids[0].size:
                calls[(self.source, label, "z" if z is grids[0].points else "phi(z)")] += 1
            return method(self, z)

        return wrapper

    monkeypatch.setattr(verify, "make_grid", making)
    monkeypatch.setattr(AnalyticFn, "__call__", counting(AnalyticFn.__call__, "f"))
    monkeypatch.setattr(AnalyticFn, "deriv", counting(AnalyticFn.deriv, "f'"))
    result = verify._run_check("harness.rotation_average_coherence")
    monkeypatch.undo()
    assert _golden_row(result) == GOLDEN[result.name]
    assert len(grids) == 1
    expected = collections.Counter()
    for src in ROTATION_PANEL:
        expected.update({(src, "f", "z"): 2, (src, "f'", "z"): 1})
    witnessed = "log(2/(1-0.999*z))"  # the one symbol whose B0 membership is not read
    for g_src in ("z^2", "complex(0.25,-0.5)", "log(2/(1-0.9*z))", witnessed):
        expected.update({(g_src, "f'", "z"): 1 + (g_src != witnessed), (g_src, "f'", "phi(z)"): 15})
    assert calls == expected
    assert sum(calls.values()) == 112


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
