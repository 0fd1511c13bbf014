"""Unit tests for the metric primitives."""

import pytest

from repro.observability import (
    AggregationCostCounter,
    Counter,
    Gauge,
    MetricGroup,
    merge_gauge_maps,
    sum_nested,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_reset(self):
        counter = Counter("c")
        counter.inc(3)
        counter.reset()
        assert counter.value == 0


class TestGauge:
    def test_tracks_high_water_mark(self):
        gauge = Gauge("g")
        gauge.set(5)
        gauge.set(2)
        assert gauge.value == 2
        assert gauge.max_value == 5

    def test_inc_dec(self):
        gauge = Gauge("g")
        gauge.inc(10)
        gauge.dec(3)
        assert gauge.value == 7
        assert gauge.max_value == 10


class TestMetricGroup:
    def test_metrics_are_cached_by_name(self):
        group = MetricGroup("task")
        assert group.counter("records") is group.counter("records")
        assert group.gauge("size") is group.gauge("size")

    def test_scope_qualifies_names(self):
        group = MetricGroup("op.0")
        assert group.counter("records").name == "op.0.records"

    def test_counters_snapshot(self):
        group = MetricGroup()
        group.counter("a").inc(2)
        group.counter("b").inc(3)
        assert group.counters() == {"a": 2, "b": 3}


class TestAggregationCostCounter:
    def test_operations_per_record(self):
        costs = AggregationCostCounter()
        costs.records.inc(10)
        costs.lifts.inc(10)
        costs.combines.inc(20)
        costs.lowers.inc(5)
        assert costs.total_operations == 35
        assert costs.operations_per_record() == pytest.approx(3.5)

    def test_zero_records_is_safe(self):
        assert AggregationCostCounter().operations_per_record() == 0.0

    def test_snapshot_shape(self):
        costs = AggregationCostCounter()
        costs.records.inc()
        costs.lifts.inc()
        snapshot = costs.snapshot()
        assert snapshot["records"] == 1
        assert snapshot["ops_per_record"] == 1.0
        assert "max_live_partials" in snapshot

    def test_partials_high_water_mark(self):
        costs = AggregationCostCounter()
        costs.partials.inc(5)
        costs.partials.dec(3)
        assert costs.max_live_partials == 5


def test_sum_nested():
    merged = sum_nested([{"a": 1, "b": 2}, {"a": 3, "c": 4}])
    assert merged == {"a": 4, "b": 2, "c": 4}
    assert sum_nested([{"x": {"y": 1}}, {"x": {"y": 2, "z": 3}}]) == {
        "x": {"y": 3, "z": 3}}


def test_merge_gauge_maps_last_wins():
    assert merge_gauge_maps([{"g": 1, "h": 2}, {"g": 5}]) == {"g": 5, "h": 2}
