"""Lazy recomputation: buffer raw elements, fold per window on demand.

The strategy of a buffering (`apply`-style) window operator and the only
generally-applicable baseline for user-defined windows: keep every raw
element, and when a window completes, fold all elements inside it --
``size`` lifts *per window*, i.e. ``size/slide`` lifts per record for a
sliding window, plus O(window) memory in raw tuples.
"""

from __future__ import annotations

import bisect
import math
from collections import OrderedDict, deque
from typing import Any, Dict, List, Optional, Tuple

from repro.cutty.sharing import CuttyResult
from repro.cutty.specs import CountWindows, WindowSpec
from repro.observability import AggregationCostCounter
from repro.windowing.aggregates import AggregateFunction, InstrumentedAggregate


class LazyRecomputeAggregator:
    """Raw-element buffer with per-window recomputation."""

    def __init__(self, aggregate: AggregateFunction,
                 queries: Dict[Any, WindowSpec],
                 counter: Optional[AggregationCostCounter] = None) -> None:
        if not queries:
            raise ValueError("at least one window query is required")
        self.counter = counter or AggregationCostCounter()
        self._aggregate = InstrumentedAggregate(aggregate, self.counter)
        self._queries = queries
        # Buffer of (ts, seq, value); in-order input keeps both coords sorted.
        self._buffer: deque = deque()
        self._pending: Dict[Any, "OrderedDict[Any, Any]"] = {
            query_id: OrderedDict() for query_id in queries}
        self._seq = 0

    @property
    def live_partials(self) -> int:
        """Raw buffered tuples count as retained partials."""
        return len(self._buffer)

    def _domain(self, query_id: Any) -> str:
        return "count" if isinstance(self._queries[query_id],
                                     CountWindows) else "time"

    def insert(self, value: Any, ts: int) -> List[CuttyResult]:
        self.counter.records.inc()
        seq = self._seq
        self._seq += 1
        results: List[CuttyResult] = []

        for query_id, spec in self._queries.items():
            for event in spec.on_time(ts):
                self._apply(query_id, event, results)
            for event in spec.before_element(value, ts, seq):
                self._apply(query_id, event, results)

        self._buffer.append((ts, seq, value))

        for query_id, spec in self._queries.items():
            for event in spec.after_element(value, ts, seq):
                self._apply(query_id, event, results)

        self._evict()
        self.counter.partials.set(self.live_partials)
        return results

    def flush(self, max_ts: int) -> List[CuttyResult]:
        results: List[CuttyResult] = []
        for query_id, spec in self._queries.items():
            for event in spec.flush(max_ts):
                self._apply(query_id, event, results)
        return results

    def _apply(self, query_id: Any, event: Tuple,
               results: List[CuttyResult]) -> None:
        if event[0] == "begin":
            self._pending[query_id][event[2]] = event[1]
            return
        _, _, start_id, window = event
        self._pending[query_id].pop(start_id, None)
        self._emit(query_id, window, results)

    def _emit(self, query_id: Any, window: Tuple,
              results: List[CuttyResult]) -> None:
        start, end = window
        coord_index = 1 if self._domain(query_id) == "count" else 0
        accumulator = None
        for item in self._buffer:
            coord = item[coord_index]
            if coord >= end:
                break
            if coord >= start:
                if accumulator is None:
                    accumulator = self._aggregate.create_accumulator()
                accumulator = self._aggregate.add(item[2], accumulator)
        if accumulator is None:
            return
        value = self._aggregate.get_result(accumulator)
        self.counter.results.inc()
        results.append(CuttyResult(query_id, start, end, value))

    def _evict(self) -> None:
        time_horizon = math.inf
        count_horizon = math.inf
        any_time = any_count = False
        for query_id in self._queries:
            pending = self._pending[query_id]
            domain_is_count = self._domain(query_id) == "count"
            # The horizon must live in the query's own domain: count
            # windows are keyed by start *sequence number* (the begin
            # point is a timestamp and must not be compared to seq).
            horizon = (next(iter(pending)) if pending else math.inf)
            if domain_is_count:
                any_count = True
                count_horizon = min(count_horizon, horizon)
            else:
                any_time = True
                time_horizon = min(time_horizon, horizon)
        while self._buffer:
            ts, seq, _ = self._buffer[0]
            time_ok = not any_time or ts < time_horizon
            count_ok = not any_count or seq < count_horizon
            if time_ok and count_ok:
                self._buffer.popleft()
            else:
                break
