"""Engine-side runtime observability.

:class:`RuntimeObservability` only exists when
``EngineConfig(observability=True)`` enables it; a disabled engine holds
``None`` and its hot path is byte-for-byte the uninstrumented one (the
scheduler pays a single ``is not None`` test per *round*, never per
record).  When enabled, the object owns the job's
:class:`~repro.observability.registry.MetricsRegistry` and
:class:`~repro.observability.tracing.TraceContext` and hooks the engine
at round granularity:

* **backpressure-stall time** -- a task that has work to do but cannot
  run because an output channel is at capacity accrues the round's tick
  into ``backpressure_stall_ms``;
* **queue occupancy** -- input-channel depths are sampled every
  :data:`SAMPLE_INTERVAL_ROUNDS` rounds into high-water-marking gauges;
* **watermark lag / event-time skew** -- per-task watermark gauges are
  compared against the job-wide frontier each sample; skew is the spread
  between the fastest and slowest live watermark;
* **checkpoint spans** -- one background span per checkpoint attempt,
  from barrier injection to seal (with duration and state-entry size) or
  abort (with the reason);
* **restart / quarantine counters** -- supervised restarts and dead
  letters, attributed in the job report.

Everything is denominated in the engine's *simulated* clock, so numbers
are deterministic for a given program and seed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.observability.registry import MetricsRegistry, sum_nested
from repro.observability.tracing import Span, TraceContext

if TYPE_CHECKING:
    from repro.runtime.engine import Engine
    from repro.runtime.task import Task
    from repro.state.checkpoint import CompletedCheckpoint

#: Environment default: ``REPRO_OBSERVABILITY=1`` enables observability
#: for engines that did not say otherwise -- how the differential
#: harness re-runs its whole oracle battery instrumented.
OBSERVABILITY_ENV_VAR = "REPRO_OBSERVABILITY"
#: Span ring-buffer capacity; the newest spans win.
TRACE_BUFFER = 4096
#: Channel-occupancy / watermark sampling period, in scheduler rounds.
SAMPLE_INTERVAL_ROUNDS = 16


class RuntimeObservability:
    """The live instrumentation attached to one :class:`Engine`."""

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.registry = MetricsRegistry()
        self.tracer = TraceContext(engine.clock.now, capacity=TRACE_BUFFER)
        # Task metric groups are reached through a provider because a
        # restart-from-scratch rebuilds them.
        self.registry.register_provider(
            lambda: [task.metrics for task in engine.tasks])
        self.registry.register_group(engine.metrics)
        self.registry.register_probe("cutty", self._cutty_probe)
        #: vertex#subtask -> accumulated stall on the simulated clock.
        self.stall_ms: Dict[str, int] = {}
        self._skew_gauge = self.registry.gauge("watermark_skew_ms")
        self._lag_gauge = self.registry.gauge("watermark_lag_ms")
        self._checkpoint_entries = self.registry.gauge(
            "checkpoint_state_entries")
        self._checkpoint_spans: Dict[int, Span] = {}

    # -- round hook --------------------------------------------------------

    def on_round(self, rounds: int, tick_ms: int) -> None:
        """Per-round accounting; called by the engine after stepping
        round ``rounds``, which took ``tick_ms`` of simulated time."""
        for task in self.engine.tasks:
            if task.finished or task.failed is not None:
                continue
            if task.has_output_capacity:
                continue
            # Output at capacity while there is (or will be) input:
            # the task is stalled by backpressure, not idle.
            if task.is_source or any(not channel.is_empty
                                     for channel, _ in task.inputs):
                key = "%s.%d" % (task.vertex_name, task.subtask_index)
                self.stall_ms[key] = self.stall_ms.get(key, 0) + tick_ms
        if rounds % SAMPLE_INTERVAL_ROUNDS == 0:
            self.sample()

    def sample(self) -> None:
        """Sample channel occupancy and the watermark frontier."""
        engine = self.engine
        watermarks = []
        for task in engine.tasks:
            for channel, _ in task.inputs:
                gauge = self.registry.gauge(
                    "channel_occupancy.%s" % channel.name)
                gauge.set(channel.size)
            if task.finished or task.is_source:
                continue
            watermark = task.current_watermark
            if watermark > -(2 ** 62):  # advanced at least once
                watermarks.append(min(watermark, 2 ** 62))
        if watermarks:
            self._skew_gauge.set(max(watermarks) - min(watermarks))
            self._lag_gauge.set(
                max(0, engine.clock.now() - min(watermarks)))

    # -- checkpoint hooks --------------------------------------------------

    def on_checkpoint_triggered(self, checkpoint_id: int,
                                participants: int) -> None:
        self._checkpoint_spans[checkpoint_id] = self.tracer.open_span(
            "checkpoint", id=checkpoint_id, participants=participants)

    def on_checkpoint_completed(self,
                                completed: "CompletedCheckpoint") -> None:
        entries = checkpoint_state_entries(completed)
        self._checkpoint_entries.set(entries)
        span = self._checkpoint_spans.pop(completed.checkpoint_id, None)
        if span is not None:
            self.tracer.close_span(span, outcome="completed",
                                   state_entries=entries,
                                   duration_ms=completed.duration_ms)

    def on_checkpoint_aborted(self, checkpoint_id: int, reason: str) -> None:
        span = self._checkpoint_spans.pop(checkpoint_id, None)
        if span is not None:
            self.tracer.close_span(span, outcome="aborted", reason=reason)

    # -- supervision hooks -------------------------------------------------

    def on_restart(self, attempt: int, delay_ms: int,
                   cause: BaseException) -> None:
        self.tracer.event("restart", attempt=attempt, delay_ms=delay_ms,
                          cause=repr(cause))

    def on_recovery(self, checkpoint_id: Optional[int]) -> None:
        self.tracer.event("recover", checkpoint=checkpoint_id)

    # -- pull-based operator stats ----------------------------------------

    def _cutty_probe(self) -> Dict[str, Any]:
        return collect_cutty_stats(self.engine)


def checkpoint_state_entries(completed: "CompletedCheckpoint") -> int:
    """Size proxy for a checkpoint: total keyed-state entries plus timer
    registrations across every task snapshot (the in-memory analogue of
    checkpoint bytes)."""
    entries = 0
    for snapshot in completed.snapshots.values():
        for table in snapshot.keyed_state.values():
            entries += len(table)
        for timers in snapshot.timers.values():
            entries += len(timers)
    return entries


def collect_cutty_stats(engine: "Engine") -> Dict[str, Any]:
    """Walk the live tasks for Cutty shared-window operators and merge
    their sharing stats (per-query results/combines, slices alive,
    elements) across parallel subtasks, keyed by operator name.  Found by
    their ``sharing_stats`` method, so a job without Cutty never imports
    it."""
    return sum_nested(
        {chained.operator.name: chained.operator.sharing_stats()}
        for task in engine.tasks for chained in task.chain
        if hasattr(chained.operator, "sharing_stats"))
