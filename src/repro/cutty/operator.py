"""CuttyWindowOperator: the shared aggregator as a runtime operator.

Drops into a keyed dataflow exactly where a
:class:`~repro.windowing.operator.WindowOperator` would sit, but serves
*all* registered window queries from one slicing aggregator per key and
emits :class:`~repro.windowing.operator.WindowResult` records tagged with
their query id.

Assumes per-key FIFO event order (guaranteed by the engine's channels for
a single upstream chain); out-of-order inputs should be sorted or
bounded-buffered upstream, as in the Cutty paper's Flink implementation.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple, Optional

from repro.cutty.sharing import SharedCuttyAggregator
from repro.cutty.specs import WindowSpec
from repro.observability import AggregationCostCounter
from repro.runtime.elements import Record
from repro.runtime.operators import Operator, OperatorContext
from repro.windowing.aggregates import AggregateFunction


#: Distinct-from-everything sentinel for the batched per-key-run cache
#: (``None`` is a legitimate key).
_NO_KEY = object()


class CuttyWindowResult(NamedTuple):
    """Emission format: one window of one query for one key."""

    key: Any
    query_id: Any
    start: Any
    end: Any
    value: Any


class CuttyWindowOperator(Operator):
    """Keyed multi-query shared window aggregation."""

    def __init__(self, aggregate_factory: Callable[[], AggregateFunction],
                 spec_factories: Dict[Any, Callable[[], WindowSpec]],
                 counter: Optional[AggregationCostCounter] = None,
                 name: str = "cutty-window") -> None:
        super().__init__()
        if not spec_factories:
            raise ValueError("at least one window query is required")
        self.name = name
        self._aggregate_factory = aggregate_factory
        self._spec_factories = spec_factories
        self.counter = counter or AggregationCostCounter()
        self._per_key: Dict[Any, SharedCuttyAggregator] = {}

    def _aggregator_for(self, key: Any) -> SharedCuttyAggregator:
        aggregator = self._per_key.get(key)
        if aggregator is None:
            aggregator = SharedCuttyAggregator(
                self._aggregate_factory(),
                {query_id: factory()
                 for query_id, factory in self._spec_factories.items()},
                counter=self.counter)
            self._per_key[key] = aggregator
        return aggregator

    def process(self, record: Record) -> None:
        if record.timestamp is None:
            raise ValueError(
                "Cutty windowing requires timestamped records; "
                "use assign_timestamps_and_watermarks() upstream")
        key = record.key
        aggregator = self._aggregator_for(key)
        for result in aggregator.insert(record.value, record.timestamp):
            self.ctx.emit(
                CuttyWindowResult(key, result.query_id, result.start,
                                  result.end, result.value),
                timestamp=record.timestamp)

    def process_batch(self, records) -> None:
        # Keyed channels deliver long same-key runs (hash routing groups
        # per batch), so cache the aggregator across a run instead of
        # paying a dict lookup per record.  Record-for-record identical
        # to process(): per-key FIFO order is preserved and each
        # emission carries its triggering record's timestamp.
        ctx = self.ctx
        emit = ctx.emit
        set_key = ctx.backend.set_current_key
        current_key = _NO_KEY
        insert = None
        for record in records:
            ts = record.timestamp
            if ts is None:
                raise ValueError(
                    "Cutty windowing requires timestamped records; "
                    "use assign_timestamps_and_watermarks() upstream")
            key = record.key
            if insert is None or key != current_key:
                current_key = key
                set_key(key)
                insert = self._aggregator_for(key).insert
            ctx.current_timestamp = ts
            for result in insert(record.value, ts):
                emit(CuttyWindowResult(key, result.query_id, result.start,
                                       result.end, result.value),
                     timestamp=ts)

    def sharing_stats(self) -> Dict[str, Any]:
        """Sharing/attribution stats for the observability layer, merged
        across this subtask's keys: per-query results and combine
        invocations, live slices, elements processed, and the aggregate
        cost table.  Pull-based -- nothing here touches the record path.
        """
        queries: Dict[Any, Dict[str, int]] = {
            query_id: {"results": 0, "combines": 0}
            for query_id in self._spec_factories}
        elements = 0
        live_slices = 0
        for aggregator in self._per_key.values():
            elements += aggregator.elements_processed
            live_slices += aggregator.live_slices
            for query_id, per_query in aggregator.query_stats.items():
                bucket = queries[query_id]
                bucket["results"] += per_query["results"]
                bucket["combines"] += per_query["combines"]
        return {
            "keys": len(self._per_key),
            "elements": elements,
            "live_slices": live_slices,
            "queries": queries,
            "aggregate_ops": {
                name: value for name, value in self.counter.snapshot().items()
                if name not in ("ops_per_record",)},
        }

    def finish(self) -> None:
        for key in sorted(self._per_key, key=repr):
            aggregator = self._per_key[key]
            # Flush up to the last timestamp this key saw: sessions close
            # at last_ts + gap, periodic specs emit their tail windows.
            for result in aggregator.flush():
                self.ctx.emit(
                    CuttyWindowResult(key, result.query_id, result.start,
                                      result.end, result.value),
                    timestamp=aggregator.max_timestamp_seen)

    def snapshot_state(self) -> Any:
        return {key: aggregator.snapshot()
                for key, aggregator in self._per_key.items()}

    def restore_state(self, state: Any) -> None:
        self._per_key = {}
        for key, snapshot in state.items():
            self._aggregator_for(key).restore(snapshot)

    def rescale_operator_state(self, states, subtask_index: int,
                               parallelism: int) -> Any:
        from repro.runtime.operators import rescale_keyed_dict_state
        return rescale_keyed_dict_state(states, subtask_index, parallelism)
