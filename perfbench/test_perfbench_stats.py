"""Tests of the benchmark's own statistics and bookkeeping.

Run with ``python -m pytest perfbench``; they import no part of phnet.
"""

import json
import statistics
from pathlib import Path

import pytest

import report
import stats
from spans import Tracer

HERE = Path(__file__).resolve().parent


# -- percentile sample rule ---------------------------------------------------

def test_nearest_rank_counts_samples_beyond():
    values = list(range(1, 101))          # 1..100
    assert stats.nearest_rank(values, 50) == (50, 50)
    assert stats.nearest_rank(values, 90) == (90, 10)
    assert stats.nearest_rank(values, 99) == (99, 1)
    assert stats.nearest_rank(values, 100) == (100, 0)


def test_tail_needs_ten_samples_beyond():
    assert stats.tail_percentile(list(range(10))) is None
    assert stats.tail_percentile(list(range(19))) is None    # p50 leaves 9
    p, value, beyond = stats.tail_percentile(list(range(20)))
    assert (p, beyond) == (50, 10)
    p, value, beyond = stats.tail_percentile(list(range(1, 101)))
    assert (p, value, beyond) == (90, 90, 10)
    p, _, beyond = stats.tail_percentile(list(range(1000)))
    assert (p, beyond) == (99, 10)


def test_tail_of_no_samples_is_none():
    assert stats.tail_percentile([]) is None


# -- self time ------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, None, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["a.inner", 2.0, 3.0, 1, 1],
        ["b", 5.0, 6.5, 0, 1],
    ]
    assert stats.self_times(spans) == pytest.approx([10.0 - 3.0 - 1.5, 2.0, 1.0, 1.5])


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 10.0, None, 1],
             ["c1", 1.0, 5.0, 0, 1],
             ["c2", 3.0, 7.0, 0, 1],
             ["c3", 9.0, 12.0, 0, 1]]           # runs past its parent's end
    assert stats.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_totals_and_nested_same_name():
    clock = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]).__next__
    t = Tracer(clock=clock)
    t.enabled = True
    outer = t.begin("f")          # 0
    inner = t.begin("f")          # 1
    leaf = t.begin("g")           # 2
    t.end(leaf)                   # 3
    t.end(inner)                  # 4
    t.end(outer)                  # 5
    totals = t.totals()
    assert totals["f"][0] == pytest.approx(5.0)          # outer span only
    assert totals["f"][1] == pytest.approx(2.0 + 2.0)    # both selves
    assert totals["g"] == pytest.approx([1.0, 1.0, 1])


def test_wrap_records_only_while_enabled():
    t = Tracer()
    f = t.wrap(lambda x: x + 1, "f", lambda tr, args, out: tr.count("n", out))
    assert f(1) == 2 and t.spans == [] and t.counts == {}
    t.enabled = True
    t.op = 7
    assert f(2) == 3
    assert [s[0] for s in t.spans] == ["f"] and t.spans[0][4] == 7
    assert t.counts == {"n": 3}


# -- failed_share -------------------------------------------------------------

def test_failed_share():
    assert stats.failed_share(0, 12) == 0.0
    assert stats.failed_share(3, 12) == 0.25
    with pytest.raises(ValueError):
        stats.failed_share(0, 0)
    with pytest.raises(ValueError):
        stats.failed_share(5, 4)


def test_quartile_spread_matches_statistics():
    values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 1.0, 0.98, 1.02, 1.01]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


# -- the declared metrics match what the benchmark prints ---------------------

def test_benchmark_json_declares_every_per_layer_metric():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(report.PER_LAYER)
    assert {w["name"] for w in doc["workloads"]} == \
        set(json.loads((HERE / "workloads.json").read_text()))
