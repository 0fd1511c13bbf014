"""Eager per-window aggregation: the Flink-default incremental strategy.

Every element is lifted into the accumulator of *every* window that
contains it -- ``size/slide`` lifts per record for a sliding window, and
``sum_i(size_i/slide_i)`` across concurrent queries.  No partial is ever
shared.  This is what :class:`~repro.windowing.operator.WindowOperator`
does internally, reproduced here on the common baseline interface so the
cost comparison is uniform.

Supports specs with an eager ``assign`` (periodic and count windows);
data-driven windows (sessions, punctuations) have no static assignment
and must use the lazy or Cutty strategies.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.cutty.sharing import CuttyResult
from repro.cutty.specs import WindowSpec
from repro.observability import AggregationCostCounter
from repro.windowing.aggregates import AggregateFunction, InstrumentedAggregate


class EagerPerWindowAggregator:
    """One accumulator per (query, in-flight window)."""

    def __init__(self, aggregate: AggregateFunction,
                 queries: Dict[Any, WindowSpec],
                 counter: Optional[AggregationCostCounter] = None) -> None:
        if not queries:
            raise ValueError("at least one window query is required")
        self.counter = counter or AggregationCostCounter()
        self._aggregate = InstrumentedAggregate(aggregate, self.counter)
        self._queries = queries
        self._accumulators: Dict[Any, Dict[Tuple, Any]] = {
            query_id: {} for query_id in queries}
        self._seq = 0

    @property
    def live_partials(self) -> int:
        return sum(len(windows) for windows in self._accumulators.values())

    def insert(self, value: Any, ts: int) -> List[CuttyResult]:
        self.counter.records.inc()
        seq = self._seq
        self._seq += 1
        results: List[CuttyResult] = []

        # Complete windows first (ends are < the current element in event
        # order), then add the element to every window containing it.
        for query_id, spec in self._queries.items():
            for event in spec.on_time(ts):
                if event[0] == "end":
                    self._emit(query_id, event[3], results)
            for event in spec.before_element(value, ts, seq):
                if event[0] == "end":
                    self._emit(query_id, event[3], results)

        for query_id, spec in self._queries.items():
            windows = self._accumulators[query_id]
            for window in spec.assign(ts, seq):
                if window in windows:
                    windows[window] = self._aggregate.add(value,
                                                          windows[window])
                else:
                    windows[window] = self._aggregate.add(
                        value, self._aggregate.create_accumulator())

        for query_id, spec in self._queries.items():
            for event in spec.after_element(value, ts, seq):
                if event[0] == "end":
                    self._emit(query_id, event[3], results)

        self.counter.partials.set(self.live_partials)
        return results

    def flush(self, max_ts: int) -> List[CuttyResult]:
        results: List[CuttyResult] = []
        for query_id, spec in self._queries.items():
            for event in spec.flush(max_ts):
                if event[0] == "end":
                    self._emit(query_id, event[3], results)
        # Remaining in-flight windows (count windows that never filled)
        # are discarded, matching the operator's semantics.
        return results

    def _emit(self, query_id: Any, window: Tuple,
              results: List[CuttyResult]) -> None:
        accumulator = self._accumulators[query_id].pop(window, None)
        if accumulator is None:
            return  # empty window
        value = self._aggregate.get_result(accumulator)
        self.counter.results.inc()
        results.append(CuttyResult(query_id, window[0], window[1], value))
