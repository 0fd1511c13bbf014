"""The standard (unshared) window operator.

This is the reference implementation every optimised strategy in
:mod:`repro.cutty` is measured against: one accumulator (or buffer) per
in-flight ``(key, window)`` pair, trigger-driven emission, merging
support for session windows, and allowed lateness with late-record
dropping.

Two computation modes:

* **incremental** -- an :class:`~repro.windowing.aggregates.AggregateFunction`
  folds elements as they arrive; a sliding window of slide ``s`` and size
  ``r`` costs ``r/s`` ``add`` calls per record (each element enters every
  window it belongs to) -- exactly the redundancy Cutty removes;
* **buffering** -- elements are kept raw and handed to a process-window
  function on fire; required for evictors and arbitrary window logic.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable, List, NamedTuple, Optional

from repro.runtime.elements import Record
from repro.runtime.operators import Operator, OperatorContext
from repro.state.descriptors import MapStateDescriptor
from repro.windowing.aggregates import AggregateFunction
from repro.windowing.assigners import WindowAssigner
from repro.windowing.evictors import Evictor
from repro.windowing.triggers import (
    EventTimeTrigger,
    ProcessingTimeTrigger,
    Trigger,
    TriggerContext,
    TriggerResult,
)
from repro.windowing.windows import merge_windows


class WindowResult(NamedTuple):
    """The default emission format of window operators."""

    key: Any
    window: Any
    value: Any


ProcessWindowFunction = Callable[[Any, Any, List[Any]], Iterable[Any]]


class _PairContext(TriggerContext):
    """The :class:`TriggerContext` of one ``(key, window)`` pair.

    Timers are the operator's, under the window's namespace.  The
    pair's scratch dict is created in keyed state the first time a
    trigger touches ``state``, so a trigger that keeps none (the two
    time triggers) leaves the ``trigger-scratch`` table empty.
    """

    __slots__ = ("_operator", "_window", "_state")

    def __init__(self, operator: "WindowOperator", window: Any) -> None:
        self._operator = operator
        self._window = window
        self._state: Optional[dict] = None

    def register_event_time_timer(self, timestamp: int) -> None:
        self._operator.ctx.register_event_time_timer(
            timestamp, namespace=self._window)

    def delete_event_time_timer(self, timestamp: int) -> None:
        self._operator.ctx.delete_event_time_timer(
            timestamp, namespace=self._window)

    def register_processing_time_timer(self, timestamp: int) -> None:
        self._operator.ctx.register_processing_time_timer(
            timestamp, namespace=self._window)

    @property
    def state(self) -> dict:
        state = self._state
        if state is None:
            scratch = self._operator._trigger_scratch
            state = scratch.get(self._window)
            if state is None:
                state = {}
                scratch.put(self._window, state)
            self._state = state
        return state


class WindowOperator(Operator):
    """Keyed windowing with per-(key, window) state.

    A ``(key, window)`` pair is created by the first record that lands
    in it: that record arms the trigger and, on event time, one clean-up
    timer at ``max_timestamp + allowed_lateness``.  The pair then lives
    until :meth:`_clear_window` -- reached from that clean-up timer, a
    purging trigger result or a session merge -- removes its contents
    and timers together.  So a pair that has contents has its clean-up
    timer pending, and nothing on the record path re-registers it.
    """

    def __init__(self, assigner: WindowAssigner,
                 aggregate: Optional[AggregateFunction] = None,
                 process_fn: Optional[ProcessWindowFunction] = None,
                 trigger: Optional[Trigger] = None,
                 evictor: Optional[Evictor] = None,
                 allowed_lateness: int = 0,
                 late_data_tag: Any = None,
                 name: str = "window") -> None:
        super().__init__()
        if (aggregate is None) == (process_fn is None):
            raise ValueError(
                "exactly one of aggregate / process_fn must be given")
        if evictor is not None and aggregate is not None:
            raise ValueError("evictors require the buffering (process_fn) mode")
        if allowed_lateness < 0:
            raise ValueError("allowed_lateness must be >= 0")
        if evictor is not None and assigner.is_merging:
            raise ValueError("evictors are not supported on merging windows")
        self.name = name
        self.assigner = assigner
        self.aggregate = aggregate
        self.process_fn = process_fn
        self.evictor = evictor
        self.allowed_lateness = allowed_lateness
        #: When set, late records are emitted as ``(late_data_tag, value)``
        #: side-output records instead of being silently dropped.
        self.late_data_tag = late_data_tag
        self._event_time = assigner.is_event_time
        self._merging = assigner.is_merging
        if trigger is not None:
            self.trigger = trigger
        elif self._event_time:
            self.trigger = EventTimeTrigger()
        else:
            self.trigger = ProcessingTimeTrigger()
        #: The two time triggers never touch ``ctx.state``, so their
        #: pairs have no scratch entry to look up when they are cleared.
        self._trigger_keeps_state = type(self.trigger) not in (
            EventTimeTrigger, ProcessingTimeTrigger)
        #: With exactly :class:`EventTimeTrigger` (``on_element`` only
        #: re-registers the fire timer and continues) in aggregate mode,
        #: a record joining a live pair whose fire timer is still
        #: pending has nothing to do but fold itself in.
        self._folds_in_place = (aggregate is not None and self._event_time
                                and type(self.trigger) is EventTimeTrigger)
        self._current_watermark = -(2**62)
        #: Every event timer up to here has been popped.  Equal to the
        #: watermark except after a rescale, which restores the lowest
        #: watermark of the old subtasks but must assume the highest for
        #: "has this pair's fire timer gone off already".
        self._fired_through = self._current_watermark

    # -- state plumbing ---------------------------------------------------

    def open(self, ctx: OperatorContext) -> None:
        super().open(ctx)
        self._contents = ctx.get_state(MapStateDescriptor("window-contents"))
        self._trigger_scratch = ctx.get_state(
            MapStateDescriptor("trigger-scratch"))
        self._late_dropped = ctx.metrics.counter("late_records_dropped")
        self._windows_fired = ctx.metrics.counter("windows_fired")

    # -- element path -------------------------------------------------------

    def process(self, record: Record) -> None:
        if self._event_time:
            timestamp = record.timestamp
            if timestamp is None:
                raise ValueError(
                    "event-time windowing requires timestamped records; "
                    "use assign_timestamps_and_watermarks() upstream")
        else:
            timestamp = self.ctx.processing_time()
        value = record.value

        windows = self.assigner.assign(value, timestamp)
        if self._merging:
            windows = [self._merge_in(window) for window in windows]

        # The key's ``{window: contents}`` dict: resolved once per record,
        # at the first window the record is not too late for (and after
        # merging, which may have replaced it).
        panes = None
        aggregate = self.aggregate
        fired_through = self._fired_through
        landed_somewhere = False
        for window in windows:
            # Past ``_fired_through`` no timer of this window has gone
            # off yet: it cannot have expired, and a pair living in it
            # still has both of its timers pending.
            pending = window.max_timestamp > fired_through
            if not pending and self._event_time and \
                    self._cleanup_time(window) <= self._current_watermark:
                self._late_dropped.inc()
                continue
            landed_somewhere = True
            if panes is None:
                panes = self._contents.mapping(create=True)
            current = panes.get(window)
            if pending and current is not None and self._folds_in_place:
                # Joining a live pair: fold in, nothing else.  (Once the
                # fire timer is gone the trigger below must re-arm it,
                # so that a straggler admitted by the allowed lateness
                # re-fires the window.)
                panes[window] = aggregate.add(value, current)
                continue
            if aggregate is not None:
                state = panes[window] = aggregate.add(
                    value, aggregate.create_accumulator()
                    if current is None else current)
            else:
                state = current
                if state is None:
                    state = panes[window] = []
                state.append((value, timestamp))
            result = self.trigger.on_element(value, timestamp, window,
                                             _PairContext(self, window))
            # The trigger's timers first: at equal timestamps the fire
            # timer must go off before the clean-up timer.
            if current is None and self._event_time:
                self.ctx.register_event_time_timer(
                    self._cleanup_time(window), namespace=("cleanup", window))
            if result is not TriggerResult.CONTINUE:
                self._handle_trigger_result(window, result, state)
                if result.purges:
                    # Clearing may have dropped the key's emptied dict.
                    panes = None
        if not landed_somewhere and self.late_data_tag is not None:
            self.ctx.emit((self.late_data_tag, value), timestamp=timestamp)

    def _cleanup_time(self, window: Any) -> int:
        return window.max_timestamp + self.allowed_lateness

    # -- session merging -----------------------------------------------------

    def _merge_in(self, new_window: Any) -> Any:
        """Coalesce ``new_window`` with overlapping in-flight windows of the
        current key; returns the window the element should join."""
        candidates = list(self._contents.keys()) + [new_window]
        for group in merge_windows(candidates):
            if new_window not in group:
                continue
            if len(group) == 1:
                return new_window
            covering = group[0]
            for member in group[1:]:
                covering = covering.cover(member)
            merged_acc = None
            merged_buffer: List[Any] = []
            for member in group:
                state = self._contents.get(member)
                if state is None:
                    continue
                if self.aggregate is not None:
                    merged_acc = (state if merged_acc is None
                                  else self.aggregate.merge(merged_acc, state))
                else:
                    merged_buffer.extend(state)
                self._clear_window(member)
            if self.aggregate is not None and merged_acc is not None:
                self._contents.put(covering, merged_acc)
            elif merged_buffer:
                self._contents.put(covering, merged_buffer)
            # Arm the covering window the way a first record would.
            if self._event_time:
                self.ctx.register_event_time_timer(covering.max_timestamp,
                                                   namespace=covering)
                self.ctx.register_event_time_timer(
                    self._cleanup_time(covering),
                    namespace=("cleanup", covering))
            return covering
        return new_window

    # -- time path -------------------------------------------------------------

    def on_watermark(self, timestamp: int) -> None:
        self._current_watermark = timestamp
        if timestamp > self._fired_through:
            self._fired_through = timestamp

    def snapshot_state(self) -> Any:
        # The operator's watermark view is part of its state: restoring
        # without it would misclassify replayed records as late.
        return {"watermark": self._current_watermark,
                "fired_through": self._fired_through}

    def restore_state(self, state: Any) -> None:
        self._current_watermark = state["watermark"]
        self._fired_through = state["fired_through"]

    def rescale_operator_state(self, states, subtask_index: int,
                               parallelism: int) -> Any:
        states = [state for state in states if state]
        if not states:
            return None
        # Conservative both ways: nothing is late that the slowest old
        # subtask would have admitted, and any window the fastest one
        # may have fired is treated as fired.
        return {"watermark": min(state["watermark"] for state in states),
                "fired_through": max(state["fired_through"]
                                     for state in states)}

    def on_event_timer(self, timestamp: int, key: Any,
                       namespace: Hashable) -> None:
        if type(namespace) is tuple:
            # ``("cleanup", window)``: the final fire already happened at
            # max_timestamp (<= cleanup time), so just drop state.
            self._clear_window(namespace[1])
            return
        state = self._contents.get(namespace)
        if state is None:
            return
        result = self.trigger.on_event_time(
            timestamp, namespace, _PairContext(self, namespace))
        self._handle_trigger_result(namespace, result, state)

    def on_processing_timer(self, timestamp: int, key: Any,
                            namespace: Hashable) -> None:
        state = self._contents.get(namespace)
        if state is None:
            return
        result = self.trigger.on_processing_time(
            timestamp, namespace, _PairContext(self, namespace))
        self._handle_trigger_result(namespace, result, state)

    # -- firing -------------------------------------------------------------------

    def _handle_trigger_result(self, window: Any, result: TriggerResult,
                               state: Any) -> None:
        """Act on a trigger's answer for a pair whose contents are
        ``state`` (not ``None``)."""
        if result.fires:
            tracer = self.ctx.tracer
            if tracer is not None:
                with tracer.span("window_fire", operator=self.name,
                                 window=repr(window)):
                    self._fire_window(window, state)
            else:
                self._fire_window(window, state)
        if result.purges:
            self._clear_window(window)

    def _fire_window(self, window: Any, state: Any) -> None:
        self._windows_fired.inc()
        key = self.ctx.current_key
        emit_ts = min(window.max_timestamp, 2**62)
        if self.aggregate is not None:
            value = self.aggregate.get_result(state)
            self.ctx.emit(WindowResult(key, window, value), timestamp=emit_ts)
            return
        elements = state
        if self.evictor is not None:
            elements = self.evictor.evict_before(elements, window,
                                                 self._current_watermark)
            self._contents.put(window, elements)
        values = [value for value, _ in elements]
        for output in self.process_fn(key, window, values):
            self.ctx.emit(output, timestamp=emit_ts)

    def _clear_window(self, window: Any) -> None:
        """End a pair's life: contents, trigger timers and scratch, and
        the clean-up timer."""
        self._contents.remove(window)
        self.trigger.clear(window, _PairContext(self, window))
        if self._trigger_keeps_state:
            self._trigger_scratch.remove(window)
        if self._event_time:
            self.ctx.delete_event_time_timer(
                self._cleanup_time(window), namespace=("cleanup", window))
