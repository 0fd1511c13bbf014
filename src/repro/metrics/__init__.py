"""Metrics and cost instrumentation shared across the engine and benchmarks."""

from repro.metrics.metrics import (
    AggregationCostCounter,
    Counter,
    Gauge,
    Histogram,
    MetricGroup,
    OperatorStats,
    ThroughputTracker,
    merge_counter_maps,
    merge_gauge_maps,
    sum_nested,
)

__all__ = [
    "AggregationCostCounter",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricGroup",
    "OperatorStats",
    "ThroughputTracker",
    "merge_counter_maps",
    "merge_gauge_maps",
    "sum_nested",
]
