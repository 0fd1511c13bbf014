"""B-Int / per-record FlatFAT: eager aggregate tree over raw records.

The strongest pre-Cutty general technique (Arasu & Widom's B-Int,
re-implemented on FlatFAT): every record becomes a tree leaf (O(log n)
combines per record), any window is an O(log n) range query.  General --
it handles user-defined windows -- but pays tree maintenance per *record*
where Cutty pays per *slice*, and keeps one partial per record in memory.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Any, Dict, List, Optional, Tuple

from repro.cutty.flatfat import FlatFAT
from repro.cutty.sharing import CuttyResult
from repro.cutty.specs import CountWindows, WindowSpec
from repro.observability import AggregationCostCounter
from repro.windowing.aggregates import AggregateFunction, InstrumentedAggregate


class BIntAggregator:
    """FlatFAT with one leaf per record."""

    def __init__(self, aggregate: AggregateFunction,
                 queries: Dict[Any, WindowSpec],
                 counter: Optional[AggregationCostCounter] = None) -> None:
        if not queries:
            raise ValueError("at least one window query is required")
        self.counter = counter or AggregationCostCounter()
        self._aggregate = InstrumentedAggregate(aggregate, self.counter)
        self._queries = queries
        self._tree = FlatFAT(self._aggregate, 8)
        # Leaf coordinates, parallel to absolute leaf indices.
        self._coords: deque = deque()  # (ts, seq) of each live leaf
        self._coords_front = 0         # absolute index of coords[0]
        self._pending: Dict[Any, "OrderedDict[Any, Any]"] = {
            query_id: OrderedDict() for query_id in queries}
        self._seq = 0

    @property
    def live_partials(self) -> int:
        return self._tree.size

    def _domain_index(self, query_id: Any) -> int:
        return 1 if isinstance(self._queries[query_id], CountWindows) else 0

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

        # Lift the record and pay the per-record tree update.
        self._tree.append(
            self._aggregate.add(value, self._aggregate.create_accumulator()))
        self._coords.append((ts, seq))

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

    def _lower_bound(self, coord: Any, domain_index: int) -> int:
        """Absolute index of the first live leaf with coordinate >= coord."""
        lo, hi = 0, len(self._coords)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._coords[mid][domain_index] < coord:
                lo = mid + 1
            else:
                hi = mid
        return self._coords_front + lo

    def _emit(self, query_id: Any, window: Tuple,
              results: List[CuttyResult]) -> None:
        start, end = window
        domain_index = self._domain_index(query_id)
        first = self._lower_bound(start, domain_index)
        last = self._lower_bound(end, domain_index)
        partial = self._tree.query(first, last)
        if partial is None:
            return
        value = self._aggregate.get_result(partial)
        self.counter.results.inc()
        results.append(CuttyResult(query_id, start, end, value))

    def _evict(self) -> None:
        import math
        time_horizon = math.inf
        count_horizon = math.inf
        any_time = any_count = False
        for query_id in self._queries:
            pending = self._pending[query_id]
            # Horizon in the query's own domain: count-window pendings
            # are keyed by start seq, time-window pendings by start ts.
            horizon = (next(iter(pending)) if pending else math.inf)
            if self._domain_index(query_id) == 1:
                any_count = True
                count_horizon = min(count_horizon, horizon)
            else:
                any_time = True
                time_horizon = min(time_horizon, horizon)
        dropped = 0
        while self._coords:
            ts, seq = self._coords[0]
            time_ok = not any_time or ts < time_horizon
            count_ok = not any_count or seq < count_horizon
            if time_ok and count_ok:
                self._coords.popleft()
                dropped += 1
            else:
                break
        if dropped:
            self._coords_front += dropped
            self._tree.evict_front(self._coords_front)
