"""The Cutty aggregator: stream slicing with multi-query aggregate sharing.

One :class:`SharedCuttyAggregator` serves *m* concurrent window queries
over the same (in-order) stream with:

* exactly **one lift per record** (into the open slice), regardless of m
  and of window overlap -- versus ``sum_i(size_i / slide_i)`` lifts for
  per-window eager aggregation;
* one FlatFAT leaf per **slice** (slices are cut at the union of all
  queries' window-begin points), versus per record;
* **O(log #slices)** combines per window result via FlatFAT range
  queries.

The correctness argument (Cutty, CIKM 2016): on a FIFO stream, when a
window's end boundary is processed, every element of the open slice
belongs to the window -- begin boundaries were already processed in
order, so the open slice starts at or after the window's start, and no
element with a timestamp past the end has been added yet.  A window is
therefore ``combine(closed slices in range, open partial)``.

Eviction is driven by the registered-start bookkeeping: a slice older
than every query's oldest pending window start can never be queried
again and is dropped from the tree.

What an element costs does not grow with the number of queries unless
it crosses one of their boundaries: a spec's ``on_time`` is asked only
once the element's timestamp reaches the spec's ``_horizon``, the
element hooks only of specs that define them, and the eviction horizon
is recomputed only when a boundary moved it.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.cutty.flatfat import FlatFAT
from repro.cutty.specs import WindowSpec
from repro.observability import AggregationCostCounter
from repro.windowing.aggregates import AggregateFunction, InstrumentedAggregate


class CuttyResult(NamedTuple):
    """One emitted window aggregate."""

    query_id: Any
    start: Any
    end: Any
    value: Any


class _QueryState:
    __slots__ = ("spec", "pending")

    def __init__(self, spec: WindowSpec) -> None:
        self.spec = spec
        # start_id -> absolute index of the window's first slice;
        # insertion order == window start order, so the first entry is
        # the eviction horizon of this query.
        self.pending: "OrderedDict[Any, int]" = OrderedDict()


class SharedCuttyAggregator:
    """Aggregate sharing across concurrent user-defined window queries."""

    def __init__(self, aggregate: AggregateFunction,
                 queries: Dict[Any, WindowSpec],
                 counter: Optional[AggregationCostCounter] = None,
                 initial_tree_capacity: int = 8) -> None:
        if not queries:
            raise ValueError("at least one window query is required")
        self.counter = counter or AggregationCostCounter()
        self._aggregate = InstrumentedAggregate(aggregate, self.counter)
        self._queries = {query_id: _QueryState(spec)
                         for query_id, spec in queries.items()}
        # Which hooks each query defines, in query order (a hook left at
        # the WindowSpec default reports nothing and is never called).
        self._on_time, self._before, self._after = (
            [(query_id, spec) for query_id, spec in queries.items()
             if getattr(type(spec), hook) is not getattr(WindowSpec, hook)]
            for hook in ("on_time", "before_element", "after_element"))
        self._tree = FlatFAT(self._aggregate, initial_tree_capacity)
        self._open_partial: Any = None
        self._open_count = 0
        self._seq = 0  # next element sequence number
        self.max_timestamp_seen: Optional[int] = None
        #: Per-query resource attribution (Shared Arrangements-style):
        #: results emitted and combine invocations spent answering each
        #: query, so a shared operator's cost can be traced back to the
        #: query that incurred it.  Maintained per window *end* -- never
        #: on the per-record path.
        self.query_stats: Dict[Any, Dict[str, int]] = {
            query_id: {"results": 0, "combines": 0} for query_id in queries}

    # -- introspection -----------------------------------------------------

    @property
    def live_slices(self) -> int:
        return self._tree.size + (1 if self._open_count else 0)

    @property
    def elements_processed(self) -> int:
        return self._seq

    # -- the per-element protocol -------------------------------------------

    def insert(self, value: Any, ts: int) -> List[CuttyResult]:
        """Process one in-order element; returns completed windows."""
        self.counter.records.inc()
        results: List[CuttyResult] = []
        seq = self._seq
        self._seq = seq + 1
        if self.max_timestamp_seen is None or ts > self.max_timestamp_seen:
            self.max_timestamp_seen = ts
        # Slices and pending starts change only where a boundary is
        # applied; between two boundaries the eviction horizon stands.
        moved = False

        # 1. Time-driven boundaries up to ts of the queries that have
        #    one due, globally ordered across queries; begins sort
        #    before ends at equal points.
        timed: List[Tuple[Any, int, int, Any, Tuple]] = []
        for query_id, spec in self._on_time:
            horizon = spec._horizon
            if horizon is None or ts >= horizon:
                for event in spec.on_time(ts):
                    # (point, begin-before-end, arrival): a total order,
                    # so the sort never compares ids or events.
                    timed.append((event[1], 0 if event[0] == "begin" else 1,
                                  len(timed), query_id, event))
        if timed:
            moved = True
            if len(timed) > 1:
                timed.sort()
            for _, _, _, query_id, event in timed:
                self._apply_event(query_id, event, results)

        # 2. Element-driven boundaries that exclude/include this element
        #    by construction of the spec (punctuation ends, count begins).
        for query_id, spec in self._before:
            for event in spec.before_element(value, ts, seq):
                self._apply_event(query_id, event, results)
                moved = True

        # 3. The element itself: exactly one lift, into the open slice.
        if self._open_count == 0:
            self._open_partial = self._aggregate.create_accumulator()
            moved = True  # the open slice starts counting as live
        self._open_partial = self._aggregate.add(value, self._open_partial)
        self._open_count += 1

        # 4. Boundaries that include this element (count-window ends).
        for query_id, spec in self._after:
            for event in spec.after_element(value, ts, seq):
                self._apply_event(query_id, event, results)
                moved = True

        if moved:
            self._evict()
            self.counter.partials.set(self.live_slices)
        return results

    def insert_many(self, items) -> List[CuttyResult]:
        """Process a run of in-order ``(value, ts)`` pairs in one call.

        The slicing protocol is inherently per-element (every element
        may cut a slice boundary), so this is the per-element loop with
        the dispatch hoisted and all completed windows appended into a
        single result list -- the bulk entry point batched callers use
        instead of allocating one list per record.
        """
        insert = self.insert
        results: List[CuttyResult] = []
        extend = results.extend
        for value, ts in items:
            out = insert(value, ts)
            if out:
                extend(out)
        return results

    def flush(self, max_ts: Optional[int] = None) -> List[CuttyResult]:
        """End-of-stream: emit every window the specs still owe, up to
        ``max_ts`` (defaults to the maximum timestamp seen)."""
        if max_ts is None:
            if self.max_timestamp_seen is None:
                return []
            max_ts = self.max_timestamp_seen
        results: List[CuttyResult] = []
        for query_id, state in self._queries.items():
            for event in state.spec.flush(max_ts):
                self._apply_event(query_id, event, results)
        return results

    # -- event handling ---------------------------------------------------------

    def _apply_event(self, query_id: Any, event: Tuple,
                     results: List[CuttyResult]) -> None:
        if event[0] == "begin":
            self._on_begin(query_id, start_id=event[2])
        else:
            _, _, start_id, window = event
            self._on_end(query_id, start_id, window, results)

    def _on_begin(self, query_id: Any, start_id: Any) -> None:
        # Cut: close the open slice (empty slices never materialise, so
        # several queries beginning at the same point share one cut).
        if self._open_count > 0:
            self._tree.append(self._open_partial)
            self._open_partial = None
            self._open_count = 0
        # The window's first slice will be the next closed slice.
        self._queries[query_id].pending[start_id] = self._tree.back_index

    def _on_end(self, query_id: Any, start_id: Any,
                window: Tuple[Any, Any], results: List[CuttyResult]) -> None:
        tree = self._tree
        start_abs = self._queries[query_id].pending.pop(start_id, None)
        if start_abs is None:
            # A window whose begin predates this aggregator (e.g. resumed
            # state); serve it from everything retained.
            start_abs = tree.front_index
        combines = self.counter.combines
        combines_before = combines.value
        partial = tree.query(start_abs, tree.back_index)
        if self._open_count > 0:
            partial = (self._open_partial if partial is None
                       else self._aggregate.merge(partial, self._open_partial))
        per_query = self.query_stats[query_id]
        per_query["combines"] += combines.value - combines_before
        if partial is None:
            return  # empty window: nothing to emit (matches the operator)
        value = self._aggregate.get_result(partial)
        self.counter.results.inc()
        per_query["results"] += 1
        results.append(CuttyResult(query_id, window[0], window[1], value))

    # -- eviction --------------------------------------------------------------------

    def _evict(self) -> None:
        horizon: Optional[int] = None
        for state in self._queries.values():
            if state.pending:
                oldest = next(iter(state.pending.values()))
                horizon = oldest if horizon is None else min(horizon, oldest)
        if horizon is None:
            horizon = self._tree.back_index  # nobody needs closed slices
        self._tree.evict_front(horizon)

    # -- state (for the runtime operator's checkpoints) ---------------------------------

    def snapshot(self) -> dict:
        """What a checkpoint holds of this aggregator.  Closed slices
        are shared with the live tree, not copied: a leaf is never
        written again (FlatFAT's contract -- ``merge`` must not mutate
        its arguments).  The open partial is copied because ``add`` may
        mutate it in place; specs contribute their position only."""
        tree = self._tree
        return {
            "seq": self._seq,
            "max_ts": self.max_timestamp_seen,
            "open_partial": copy.deepcopy(self._open_partial),
            "open_count": self._open_count,
            "pending": {qid: list(state.pending.items())
                        for qid, state in self._queries.items()},
            "query_stats": {qid: dict(stats)
                            for qid, stats in self.query_stats.items()},
            "specs": {qid: state.spec._position()
                      for qid, state in self._queries.items()},
            "slices": tree.leaves(),
            "front": tree.front_index,
            "capacity": tree.capacity,
        }

    def restore(self, snapshot: dict) -> None:
        self._seq = snapshot["seq"]
        self.max_timestamp_seen = snapshot["max_ts"]
        # The same snapshot may be restored again after the next failure.
        self._open_partial = copy.deepcopy(snapshot["open_partial"])
        self._open_count = snapshot["open_count"]
        for query_id, state in self._queries.items():
            state.pending = OrderedDict(snapshot["pending"][query_id])
            state.spec._seek(snapshot["specs"][query_id])
        self.query_stats = {qid: dict(stats) for qid, stats
                            in snapshot["query_stats"].items()}
        # Same capacity and absolute indices, hence the same leaf slots
        # and the same combines per range query as the tree snapshotted.
        self._tree = FlatFAT(self._aggregate, snapshot["capacity"],
                             front=snapshot["front"])
        for partial in snapshot["slices"]:
            self._tree.append(partial)


class CuttyAggregator(SharedCuttyAggregator):
    """Single-query convenience wrapper."""

    def __init__(self, aggregate: AggregateFunction, spec: WindowSpec,
                 counter: Optional[AggregationCostCounter] = None) -> None:
        super().__init__(aggregate, {0: spec}, counter)
