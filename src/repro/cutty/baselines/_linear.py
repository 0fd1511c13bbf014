"""Shared machinery for Pairs and Panes: periodic slicing with linear
(tree-less) final aggregation.

Both techniques pre-date Cutty and only handle a *single periodic* query:
they cut the stream at a fixed periodic pattern chosen so that every
window boundary (begin AND end) aligns with a cut, keep one partial per
slice, and combine a window's slices left-to-right when it closes.

The subclasses differ only in the cut pattern:

* Panes: uniform slices of ``gcd(size, slide)``;
* Pairs: alternating slices of ``size % slide`` and
  ``slide - size % slide`` (one pair per slide).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterator, List, Optional, Tuple

from repro.cutty.sharing import CuttyResult
from repro.observability import AggregationCostCounter
from repro.windowing.aggregates import AggregateFunction, InstrumentedAggregate


class LinearSlicedAggregator:
    """Base: periodic cuts, deque of slice partials, linear window combine."""

    def __init__(self, aggregate: AggregateFunction, size: int, slide: int,
                 counter: Optional[AggregationCostCounter] = None,
                 query_id: Any = 0) -> None:
        if size <= 0 or slide <= 0 or slide > size:
            raise ValueError("need 0 < slide <= size")
        self.size = size
        self.slide = slide
        self.query_id = query_id
        self.counter = counter or AggregationCostCounter()
        self._aggregate = InstrumentedAggregate(aggregate, self.counter)
        self._slices: deque = deque()  # (start_point, partial)
        self._open_start: Optional[int] = None
        self._open_partial: Any = None
        self._open_count = 0
        self._last_cut_seen: Optional[int] = None
        self._next_end_start: Optional[int] = None

    # -- subclass hook -------------------------------------------------------

    def _cuts_between(self, after: int, up_to: int) -> List[int]:
        """Cut points in ``(after, up_to]``, ascending."""
        raise NotImplementedError

    def _first_cut_at_or_before(self, ts: int) -> int:
        raise NotImplementedError

    # -- shared logic ----------------------------------------------------------

    @property
    def live_partials(self) -> int:
        return len(self._slices) + (1 if self._open_count else 0)

    def insert(self, value: Any, ts: int) -> List[CuttyResult]:
        self.counter.records.inc()
        results: List[CuttyResult] = []
        if self._next_end_start is None:
            self._open_start = self._first_cut_at_or_before(ts)
            self._next_end_start = (
                (ts - self.size) // self.slide + 1) * self.slide
        else:
            for cut in self._cuts_between(self._last_cut_seen, ts):
                self._close_open(cut)
        self._last_cut_seen = ts
        # Window ends are cut-aligned, so ends <= ts are served from
        # closed slices only.
        while self._next_end_start + self.size <= ts:
            self._emit(self._next_end_start, results)
            self._next_end_start += self.slide
        self._add(value)
        self._evict()
        self.counter.partials.set(self.live_partials)
        return results

    def flush(self, max_ts: int) -> List[CuttyResult]:
        if self._next_end_start is None:
            return []
        if self._open_count:
            self._close_open(max_ts + 1)
        results: List[CuttyResult] = []
        while self._next_end_start <= max_ts:
            self._emit(self._next_end_start, results)
            self._next_end_start += self.slide
        return results

    def _close_open(self, cut_point: int) -> None:
        if self._open_count:
            self._slices.append((self._open_start, self._open_partial))
        self._open_start = cut_point
        self._open_partial = None
        self._open_count = 0

    def _add(self, value: Any) -> None:
        if self._open_count == 0:
            self._open_partial = self._aggregate.create_accumulator()
        self._open_partial = self._aggregate.add(value, self._open_partial)
        self._open_count += 1

    def _emit(self, start: int, results: List[CuttyResult]) -> None:
        end = start + self.size
        accumulator = None
        for slice_start, partial in self._slices:
            if slice_start >= end:
                break
            if slice_start >= start:
                accumulator = (partial if accumulator is None
                               else self._aggregate.merge(accumulator,
                                                          partial))
        if accumulator is None:
            return
        value = self._aggregate.get_result(accumulator)
        self.counter.results.inc()
        results.append(CuttyResult(self.query_id, start, end, value))

    def _evict(self) -> None:
        # A slice is dead once it ends at or before the oldest pending
        # window's start; a slice's end is the next slice's start.
        while len(self._slices) >= 2 and \
                self._slices[1][0] <= self._next_end_start:
            self._slices.popleft()
        if (len(self._slices) == 1 and self._open_start is not None
                and self._open_start <= self._next_end_start):
            self._slices.popleft()
