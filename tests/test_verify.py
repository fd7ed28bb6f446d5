"""The self-check registry: selection, execution, result shape and pinned outputs.

``data/verify_golden.json`` holds every check's name, suite, pass flag,
detail text and ``repr(slack)``.  Regenerate it (only when a check is meant
to change) with ``PYTHONPATH=src python tests/test_verify.py``.
"""

import ast
import json
import multiprocessing
import os
import pathlib
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from blochlab import available_checks, run_suite, verify
from blochlab.diskgeom import DEFAULT_MAX_SHELL
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
    # empty fixture caches: each golden row holds for its check run alone
    for cache in verify._FIXTURE_CACHES:
        cache.cache_clear()
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


def test_every_fixture_cache_is_listed():
    # checks are independent only while _FIXTURE_CACHES names every cache
    tree = ast.parse(pathlib.Path(verify.__file__).read_text())
    cached = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any("lru_cache" in ast.unparse(d) for d in node.decorator_list)
    }
    (listed,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [ast.unparse(t) for t in node.targets] == ["_FIXTURE_CACHES"]
    ]
    assert cached and cached <= {ast.unparse(e) for e in listed.elts}


def test_fixture_caches_fill_in_default_arguments():
    assert verify._grid() is verify._grid(DEFAULT_MAX_SHELL)
    assert verify._grid(6) is verify._grid(max_shell=6, base_angular=64)
    assert verify._self_map("z/2") is verify._self_map("z/2", DEFAULT_MAX_SHELL)
    assert verify._self_map("z/2", 6) is verify._self_map("z/2", max_shell=6)
    assert verify._self_map("z/2", 6) is not verify._self_map("z/2")


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("everything")


def test_empty_selection_rejected():
    with pytest.raises(ValueError, match="no checks match"):
        run_suite("identities", name_filter="zzz_nothing")


if __name__ == "__main__":
    rows = [_golden_row(result) for result in run_suite("all")]
    GOLDEN_PATH.write_text(json.dumps(rows, indent=1) + "\n")
