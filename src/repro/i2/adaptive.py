"""Streaming M4 as a dataflow operator: cluster-side chart aggregation.

I2's architectural point is that the reduction runs *inside the cluster
application*, next to the data, so only pixel-bounded updates cross to
the visualization client.  :class:`StreamingM4Operator` is that piece:
a keyed operator (key = series id) that maintains per-column M4 state
and pushes a column downstream as soon as the event-time watermark
proves it complete -- giving the client an incrementally filling chart
whose total traffic is bounded by ``4 * width`` tuples per series.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.i2.m4 import ColumnAggregate, M4Aggregator
from repro.runtime.elements import Record
from repro.runtime.operators import Operator, OperatorContext

Point = Tuple[float, float]


class ChartUpdate(NamedTuple):
    """One completed pixel column for one series."""

    series: Any
    column: int
    points: Tuple[Point, ...]


class StreamingM4Operator(Operator):
    """Per-series M4 with watermark-driven column emission.

    Expects records of ``(value: float)`` with event timestamps; the
    series is the record's key.
    """

    def __init__(self, t_min: int, t_max: int, width: int,
                 value_fn: Callable[[Any], float] = float,
                 name: str = "streaming-m4") -> None:
        super().__init__()
        self.name = name
        self.t_min = t_min
        self.t_max = t_max
        self.width = width
        self._value_fn = value_fn
        self._aggregators: Dict[Any, M4Aggregator] = {}
        self._emitted: Dict[Any, int] = {}  # series -> columns emitted so far

    def open(self, ctx: OperatorContext) -> None:
        super().open(ctx)
        self._tuples_out = ctx.metrics.counter("chart_tuples_transferred")
        self._records_seen = ctx.metrics.counter("chart_tuples_seen")

    def _aggregator_for(self, series: Any) -> M4Aggregator:
        aggregator = self._aggregators.get(series)
        if aggregator is None:
            aggregator = M4Aggregator(self.t_min, self.t_max, self.width)
            self._aggregators[series] = aggregator
            self._emitted[series] = 0
        return aggregator

    def process(self, record: Record) -> None:
        if record.timestamp is None:
            raise ValueError("StreamingM4Operator requires event timestamps")
        if not self.t_min <= record.timestamp <= self.t_max:
            return  # outside the chart's visible range
        self._records_seen.inc()
        self._aggregator_for(record.key).insert(
            record.timestamp, self._value_fn(record.value))

    def on_watermark(self, timestamp: int) -> None:
        """Emit every column whose time interval is fully below the
        watermark."""
        span = self.t_max - self.t_min
        for series, aggregator in self._aggregators.items():
            complete_columns = min(
                self.width,
                int((timestamp - self.t_min) * self.width / span)
                if timestamp >= self.t_min else 0)
            self._emit_columns(series, aggregator, complete_columns,
                               emit_ts=timestamp)

    def finish(self) -> None:
        for series, aggregator in self._aggregators.items():
            self._emit_columns(series, aggregator, self.width,
                               emit_ts=self.t_max)

    def _emit_columns(self, series: Any, aggregator: M4Aggregator,
                      up_to: int, emit_ts: int) -> None:
        start = self._emitted[series]
        for column in range(start, up_to):
            aggregate = aggregator.column(column)
            if aggregate is not None:
                points = tuple(aggregate.points())
                self._tuples_out.inc(len(points))
                self.ctx.emit(ChartUpdate(series, column, points),
                              timestamp=min(emit_ts, 2**62))
        self._emitted[series] = max(start, up_to)

    def snapshot_state(self) -> Any:
        return {
            "emitted": self._emitted,
            "columns": {series: agg._columns
                        for series, agg in self._aggregators.items()},
            "inserted": {series: agg.inserted
                         for series, agg in self._aggregators.items()},
        }

    def restore_state(self, state: Any) -> None:
        self._aggregators = {}
        self._emitted = state["emitted"]
        for series, columns in state["columns"].items():
            aggregator = M4Aggregator(self.t_min, self.t_max, self.width)
            aggregator._columns = columns
            aggregator.inserted = state["inserted"][series]
            self._aggregators[series] = aggregator

    def rescale_operator_state(self, states, subtask_index: int,
                               parallelism: int) -> Any:
        # Every sub-dict is keyed by series id (the record key).
        from repro.runtime.operators import rescale_keyed_dict_state
        merged = {"emitted": {}, "columns": {}, "inserted": {}}
        for field in merged:
            merged[field] = rescale_keyed_dict_state(
                [state.get(field, {}) for state in states if state],
                subtask_index, parallelism)
        return merged
