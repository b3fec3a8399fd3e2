"""Tests for the benchmark's own helpers.

    python -m pytest perfbench
"""

import itertools
import json
import random
import statistics
from pathlib import Path

import pytest

import gen
import measure
import run
import spans

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def test_seeded_generation_reproduces():
    for make in (gen.dense_instances, gen.wide_instances, gen.campaign_batches):
        assert make(7) == make(7)
        assert make(7) != make(8)


def test_decide_inputs_have_the_declared_shape():
    for make, count, n, m in (
        (gen.dense_instances, gen.DENSE_POOL, gen.DENSE_N, gen.DENSE_M),
        (gen.wide_instances, gen.WIDE_POOL, gen.WIDE_N, gen.WIDE_M),
    ):
        pool = make(5)
        assert len(pool) == count
        assert len({inst.instance_id for inst in pool}) == count
        for inst in pool:
            assert inst.n == n and len(set(inst.models)) == m
            assert all(len(x) == n and set(x) <= {"0", "1"} for x in inst.models)


def test_campaign_batches_hold_both_generator_kinds():
    for batch in gen.campaign_batches(5):
        kinds = {(row.kind, row.n) for row in batch.main if row.count}
        for n in gen.CAMPAIGN_PLAN:
            assert {(gen.SUBSET, n), (gen.CNF_MODELS, n)} <= kinds
        assert batch.instances() == sum(gen.CAMPAIGN_PLAN.values()) + len(gen.QUINE_SIZES) * gen.QUINE_COUNT


def test_tail_keeps_ten_samples_beyond_it():
    rng = random.Random(0)
    for count in range(1, 120):
        samples = [rng.random() for _ in range(count)]
        value, percentile, seen = measure.tail(samples)
        assert seen == count
        if count >= 2 * measure.TAIL_BEYOND + 2:
            assert sum(s > value for s in samples) == measure.TAIL_BEYOND
            assert percentile == 100.0 * (count - measure.TAIL_BEYOND) / count
        else:
            assert (value, percentile) == (statistics.median(samples), 50.0)
        assert value >= statistics.median(samples)


def test_metric_names_match_the_declared_benchmark():
    declared = json.loads(BENCHMARK.read_text())
    e2e = [(m["name"], m["unit"]) for m in declared["end_to_end"]]
    per_layer = [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert per_layer == list(spans.PER_LAYER)
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    names = [name for name, *_ in e2e + per_layer] + list(run.WORKLOADS)
    assert len(set(names)) == len(names)
    for name in names:
        assert measure.METRIC_NAME.fullmatch(name), name


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    root = tracer.begin("op")
    tracer.call(spans.CLOSURE, sum, range(1000))
    tracer.end(root)
    layers = spans.layer_metrics(tracer, 1, traced_s=2.0, untraced_s=1.0)
    op_s = tracer.spans[root][4] - tracer.spans[root][3]
    closure_s = layers["closure.busy_s"][0]
    assert 0 < closure_s <= op_s
    assert layers["closure.calls"] == (1.0, "count/inst")
    assert layers["trace.unattributed_frac"][0] == pytest.approx((op_s - closure_s) / op_s)
    assert layers["trace.overhead_frac"][0] == pytest.approx(1.0)


def test_rounds_cover_the_pool_before_stopping():
    assert list(run.rounds([1, 2, 3], seconds=0.0)) == [1, 2, 3]
    taken = list(itertools.islice(run.rounds([1, 2, 3], seconds=60.0), 7))
    assert taken == [1, 2, 3, 1, 2, 3, 1]


def test_median_per_id_keeps_first_seen_order():
    ids = ["a", "b", "a", "b", "c", "a"]
    assert run.median_per_id(ids, [3.0, 1.0, 2.0, 4.0, 5.0, 9.0]) == [3.0, 2.5, 5.0]


def test_host_clock_scales_by_the_probes_around_an_op(monkeypatch):
    probes = iter([2 * measure.REFERENCE_S, 4 * measure.REFERENCE_S])
    monkeypatch.setattr(measure, "host_probe", lambda: next(probes))
    clock = measure.HostClock()
    assert clock.scale(6.0) == pytest.approx(2.0)
    assert clock.slowdown() == pytest.approx(3.0)
