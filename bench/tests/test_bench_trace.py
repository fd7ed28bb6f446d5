"""The traced run counts what the reference commit is known to do."""

import json

import blochlab
import pytest
from blochlab import G_CORPUS, TEN_MAP_PANEL, criteria, exprdsl, harness, verify

import run
import workloads
from tracer import Tracer, layer_metrics


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


def traced_iteration(workload):
    tracer = Tracer()
    tracer.install()
    try:
        workload.setup()
        output = workload.iterate()
    finally:
        tracer.uninstall()
    spans = tracer.take()
    return layer_metrics(spans, blochlab.available_checks("all")), spans, output


def distinct_pairs(spans):
    """Distinct (phi, g) pairs among criterion evaluations that read the map."""
    return len({(s.info[1], s.info[2]) for s in spans
                if s.name == "criteria.evaluate_criterion" and s.info[1] is not None})


def counts(metrics):
    return {k: v for k, v in metrics.items() if isinstance(v, int)}


def test_panel_sweep_counts_match_the_reference_commit_and_repeat(reference):
    first, spans, output = traced_iteration(workloads.PanelSweep(0, reference))
    assert first["criteria.evaluate_calls"] == 1620
    assert first["criteria.classify_calls"] == 990
    assert distinct_pairs(spans) == 90
    assert first["harness.emit_bytes"] > 3_000_000
    sweep = workloads.PanelSweep(0, reference)
    sweep.setup()
    assert sweep.check(output) == (992, 0, [])

    second, _, _ = traced_iteration(workloads.PanelSweep(0, reference))
    assert counts(first) == counts(second)


def test_dense_grid_counts_repeat_on_one_pair(reference):
    def one_pair():
        dense = workloads.DenseGrid(7, reference)
        dense.pairs = dense.pairs[:1]
        return dense

    dense = one_pair()
    first, _, output = traced_iteration(dense)
    second, _, _ = traced_iteration(one_pair())
    assert counts(first) == counts(second)
    assert first["criteria.classify_calls"] == len(blochlab.THEOREMS)
    assert first["diskgeom.grid_points"] == 122_880
    assert dense.check(output) == (len(blochlab.THEOREMS), 0, [])


def test_tracer_restores_every_patched_name():
    originals = (criteria.classify, harness.classify, verify.evaluate_criterion,
                 blochlab.run_classification, exprdsl.AnalyticFn.__call__)
    registry = dict(verify._REGISTRY)
    tracer = Tracer()
    tracer.install()
    assert harness.classify is not originals[1]
    assert verify.evaluate_criterion is not originals[2]
    tracer.uninstall()
    assert (criteria.classify, harness.classify, verify.evaluate_criterion,
            blochlab.run_classification, exprdsl.AnalyticFn.__call__) == originals
    assert verify._REGISTRY == registry


def test_dense_pairs_are_seeded_and_covered_by_the_reference(reference):
    default, held_out = workloads.dense_pairs(0), workloads.dense_pairs(1)
    assert default == workloads.dense_pairs(0)
    assert default != held_out
    for pairs in (default, held_out):
        assert len(pairs) == len(set(pairs)) == workloads.DENSE_TRANSVERSALS * len(G_CORPUS)
        assert sorted({g for _, g in pairs}) == sorted(G_CORPUS)
        assert {p for p, _ in pairs} <= set(TEN_MAP_PANEL)
        for phi, g in pairs:
            assert workloads.pair_key(phi, g) in reference["dense_grid"]["verdicts"]


def test_tail_is_the_nearest_rank_75th_percentile():
    assert run.tail_index(1) == 0
    assert run.tail_index(4) == 2
    assert run.tail_index(10) == 7
    assert run.tail_index(100) == 74


def samples(events):
    return {"events": events, "cases": 2, "points": 3, "rss_mb": 9.0}


def test_each_sample_is_scaled_by_the_probes_on_either_side():
    ref, e = run.calibrate.REFERENCE_S, run.calibrate.SPEED_EXPONENT
    events = [["probe", ref], ["setup", 0.05], ["probe", ref], ["probe", 3 * ref],
              ["iter", 0.1], ["probe", 2 * ref], ["iter", 0.1], ["probe", 2 * ref], ["iter", 0.1],
              ["probe", 4 * ref]]
    assert run.normalised(samples(events), "setup") == pytest.approx([0.05 * (3 / 5) ** e])
    assert run.normalised(samples(events), "iter") == pytest.approx(
        [0.1 * (1 / 2) ** e, 0.1 * (1 / 2) ** e, 0.1 * (1 / 3) ** e])
    metrics = run.end_to_end(samples(events))[0]
    assert metrics["iter_s.p50"]["value"] == pytest.approx(0.1 * (1 / 2) ** e)
    assert metrics["setup_s"]["value"] == pytest.approx(0.05 * (3 / 5) ** e)
    assert metrics["peak_rss_mb"]["value"] == 9.0


def test_a_long_sample_takes_probes_from_further_away():
    ref, e = run.calibrate.REFERENCE_S, run.calibrate.SPEED_EXPONENT
    events = [["probe", ref], ["iter", 0.1], ["probe", ref], ["iter", 3 * ref], ["probe", ref],
              ["iter", 0.1], ["probe", 5 * ref]]
    assert run.normalised(samples(events), "iter")[1] == pytest.approx(3 * ref * (1 / 2) ** e)


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer_names = list(layer_metrics([], blochlab.available_checks("all"))) + ["trace.overhead_frac"]
    assert [m["name"] for m in spec["per_layer"]] == layer_names
    events = [["probe", 0.1], ["setup", 0.5], ["probe", 0.1], ["iter", 1.0], ["probe", 0.1]]
    assert {m["name"] for m in spec["end_to_end"]} == set(run.end_to_end(samples(events))[0])
