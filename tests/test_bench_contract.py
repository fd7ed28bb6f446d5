"""The names the benchmark in ``bench/`` reads from blochlab still resolve.

The benchmark's own tests are not part of this suite, so a refactor that
drops a name the benchmark reads would otherwise surface only in a benchmark
run.  The benchmark's modules are loaded as they are, from their files.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

from blochlab import make_grid, verify

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def test_every_traced_function_resolves():
    tracer = _load("tracer")
    for module_name, function_name in tracer.TRACED_FUNCTIONS:
        module = importlib.import_module(f"blochlab.{module_name}")
        assert callable(getattr(module, function_name)), (module_name, function_name)
    assert callable(verify.evaluate_criterion)


def test_grid_keys_read_the_layout_a_grid_derives():
    # the benchmark keys its spans by grid layout, which a grid reads from its points
    tracer = _load("tracer")
    assert tracer._grid_key(make_grid()) == (14, 64, 7680)
    assert tracer._grid_key(make_grid(6, 128)) == (6, 128, 3584)


def test_reference_lists_every_check_in_registry_order():
    # the benchmark refuses a run whose results miss a check it lists
    reference = _load("workloads").load_reference()
    assert reference["verify_all"]["checks"] == verify.available_checks()


def test_panel_sweep_reproduces_the_reference_bytes():
    # every verdict, plus the JSON and CSV sha256 of the 990-case report
    workloads = _load("workloads")
    runner = workloads.PanelSweep(0, workloads.load_reference())
    runner.setup()
    assert runner.check(runner.iterate()) == (992, 0, [])


@pytest.mark.parametrize("workload", ["panel_sweep", "dense_grid", "verify_all"])
def test_workload_setup_runs(workload):
    workloads = _load("workloads")
    runner = workloads.WORKLOADS[workload](0, workloads.load_reference())
    runner.setup()
    assert runner.cases > 0 and runner.points > 0
