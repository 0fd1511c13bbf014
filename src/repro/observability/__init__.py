"""Runtime observability: metrics registry, span tracing, exposition.

The operability leg of the reproduction: a
:class:`~repro.observability.registry.MetricsRegistry` federating the
logical-cost counters of :mod:`repro.metrics` with runtime metrics
(throughput, queue occupancy, backpressure-stall time, watermark lag,
checkpoint and restart statistics, Cutty sharing counters), span tracing
over the simulated clock, and a
:class:`~repro.observability.reporter.MetricsReporter` rendering
text/JSON/Prometheus snapshots.

Enable per engine with ``EngineConfig(observability=True)``, or
process-wide with ``REPRO_OBSERVABILITY=1``.  Disabled engines pay
nothing on the record hot path.
"""

from repro.observability.registry import MetricsRegistry
from repro.observability.reporter import FORMATS, JobReport, MetricsReporter
from repro.observability.runtime import (
    OBSERVABILITY_ENV_VAR,
    RuntimeObservability,
    checkpoint_state_entries,
    collect_cutty_stats,
)
from repro.observability.tracing import Span, TraceContext

__all__ = [
    "FORMATS",
    "JobReport",
    "MetricsRegistry",
    "MetricsReporter",
    "OBSERVABILITY_ENV_VAR",
    "RuntimeObservability",
    "Span",
    "TraceContext",
    "checkpoint_state_entries",
    "collect_cutty_stats",
]
