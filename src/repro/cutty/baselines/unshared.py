"""Unshared multi-query execution: one independent operator per query.

The strawman Cutty's sharing is measured against in E2: every query runs
its own aggregator over its own copy of the stream state (as separate
Flink window operators would).  Costs accumulate into one shared
counter; ``records`` reflects *stream* records (counted once), so
``snapshot()['ops_per_record']`` is directly comparable with the shared
aggregator's.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.cutty.sharing import CuttyResult
from repro.observability import AggregationCostCounter


class UnsharedMultiQueryAggregator:
    """Fans every record out to one single-query aggregator per query."""

    def __init__(self, aggregator_factory: Callable[[Any, AggregationCostCounter], Any],
                 query_ids: List[Any],
                 counter: Optional[AggregationCostCounter] = None) -> None:
        if not query_ids:
            raise ValueError("at least one query is required")
        self.counter = counter or AggregationCostCounter()
        self._aggregators: Dict[Any, Any] = {
            query_id: aggregator_factory(query_id, self.counter)
            for query_id in query_ids}
        self._records = 0

    @property
    def live_partials(self) -> int:
        return sum(agg.live_partials if hasattr(agg, "live_partials")
                   else agg.live_slices
                   for agg in self._aggregators.values())

    def insert(self, value: Any, ts: int) -> List[CuttyResult]:
        self._records += 1
        results: List[CuttyResult] = []
        for query_id, aggregator in self._aggregators.items():
            for result in aggregator.insert(value, ts):
                results.append(CuttyResult(query_id, result.start,
                                           result.end, result.value))
        # Sub-aggregators each bumped `records`; a stream record counts once.
        self._fix_record_count()
        self.counter.partials.set(self.live_partials)
        return results

    def flush(self, max_ts: int) -> List[CuttyResult]:
        results: List[CuttyResult] = []
        for query_id, aggregator in self._aggregators.items():
            for result in aggregator.flush(max_ts):
                results.append(CuttyResult(query_id, result.start,
                                           result.end, result.value))
        return results

    def _fix_record_count(self) -> None:
        overcount = self.counter.records.value - self._records
        if overcount:
            self.counter.records.reset()
            self.counter.records.inc(self._records)
