"""The self-check registry: selection, execution, result shape and pinned outputs.

``data/verify_golden.json`` holds every check's name, suite, pass flag,
detail text and ``repr(slack)``.  Regenerate it (only when a check is meant
to change) with ``PYTHONPATH=src python tests/test_verify.py``.
"""

import json
import pathlib

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
