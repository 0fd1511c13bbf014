"""Runtime observability and the engine's metric instruments.

The one instrument package of the reproduction:

* the metric primitives -- :class:`Counter`, :class:`Gauge`, the
  per-task :class:`MetricGroup` and the logical-cost
  :class:`AggregationCostCounter` behind experiments E1-E4 -- and their
  merge rules :func:`sum_nested` / :func:`merge_gauge_maps`;
* a :class:`~repro.observability.registry.MetricsRegistry` federating
  those with runtime metrics (throughput, queue occupancy,
  backpressure-stall time, watermark lag, checkpoint and restart
  statistics, Cutty sharing counters);
* span tracing over the simulated clock, and the
  :class:`~repro.observability.reporter.JobReport` that
  :meth:`Engine.job_report` returns, rendered as text, JSON or
  Prometheus exposition.

The primitives are always on: tasks and window strategies count through
them whether or not observability is enabled.  Enable the registry,
tracing and report sections per engine with
``EngineConfig(observability=True)``, or process-wide with
``REPRO_OBSERVABILITY=1``.  Disabled engines pay nothing on the record
hot path.
"""

from repro.observability.registry import (
    AggregationCostCounter,
    Counter,
    Gauge,
    MetricGroup,
    MetricsRegistry,
    merge_gauge_maps,
    sum_nested,
)
from repro.observability.reporter import FORMATS, JobReport
from repro.observability.runtime import (
    OBSERVABILITY_ENV_VAR,
    RuntimeObservability,
    checkpoint_state_entries,
    collect_cutty_stats,
)
from repro.observability.tracing import Span, TraceContext

__all__ = [
    "AggregationCostCounter",
    "Counter",
    "FORMATS",
    "Gauge",
    "JobReport",
    "MetricGroup",
    "MetricsRegistry",
    "OBSERVABILITY_ENV_VAR",
    "RuntimeObservability",
    "Span",
    "TraceContext",
    "checkpoint_state_entries",
    "collect_cutty_stats",
    "merge_gauge_maps",
    "sum_nested",
]
