"""DataSet: the fluent API for data at rest.

Every DataSet transformation lowers onto the *same* runtime as the
DataStream API -- sources are bounded, blocking operators buffer until
``EndOfStream`` and emit in ``finish``.  There is no separate batch
engine; that absence is the point of the unified model.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, List, Optional

from repro.api.handle import _Handle, _wire
from repro.api.stream import DataStream
from repro.runtime.batch import (
    CountOperator,
    DistinctOperator,
    FoldAllOperator,
    GroupReduceOperator,
    HashJoinOperator,
    SortOperator,
)
from repro.runtime.partition import GlobalPartitioner, HashPartitioner


class DataSet(_Handle):
    """A handle on a bounded dataflow node.  ``map`` / ``flat_map`` /
    ``filter`` / ``union`` / ``collect`` / ``add_sink`` are the shared
    :class:`~repro.api.handle._Handle` verbs; a sink runs as one subtask
    unless told otherwise."""

    _sink_parallelism = 1

    # -- grouping / global aggregates ---------------------------------------------

    def group_by(self, key_selector: Callable[[Any], Any]) -> "GroupedDataSet":
        return GroupedDataSet(self, key_selector)

    def key_by(self, key_selector: Callable[[Any], Any]) -> "GroupedDataSet":
        """Streaming-vocabulary alias of :meth:`group_by`: the same
        pipeline body works on a DataSet and a DataStream."""
        return self.group_by(key_selector)

    def _global(self, name: str, operator_factory: Callable[[], Any]
                ) -> "DataSet":
        """A blocking stage that must see the whole input: one subtask."""
        return self._then(name, operator_factory, parallelism=1,
                          partitioner=GlobalPartitioner())

    def distinct(self, key_fn: Optional[Callable[[Any], Any]] = None,
                 name: str = "distinct") -> "DataSet":
        """Distinct values (by ``key_fn`` if given); exact, via a global
        single-parallelism stage."""
        return self._global(name, lambda: DistinctOperator(key_fn, name))

    def count(self, name: str = "count") -> "DataSet":
        return self._global(name, lambda: CountOperator(name))

    def fold(self, initial: Any, fold_fn: Callable[[Any, Any], Any],
             name: str = "fold") -> "DataSet":
        """Global fold over the whole DataSet into one value."""
        return self._global(name,
                            lambda: FoldAllOperator(initial, fold_fn, name))

    def sort(self, key_fn: Optional[Callable[[Any], Any]] = None,
             descending: bool = False, name: str = "sort") -> "DataSet":
        """Total order; necessarily single-parallelism."""
        return self._global(name,
                            lambda: SortOperator(key_fn, descending, name))

    # -- joins --------------------------------------------------------------------

    def join(self, other: "DataSet", left_key: Callable[[Any], Any],
             right_key: Callable[[Any], Any],
             join_fn: Callable[[Any, Any], Any] = lambda l, r: (l, r),
             parallelism: Optional[int] = None,
             name: str = "join") -> "DataSet":
        """Repartitioned hash equi-join: both sides hashed on their key to
        the same join tasks."""
        return DataSet(self.env, _wire(
            self.env, name,
            lambda: HashJoinOperator(left_key, right_key, join_fn, name),
            [(self, HashPartitioner(left_key), 0),
             (other, HashPartitioner(right_key), 1)],
            parallelism or self.env.parallelism, allow_chaining=False))

    # -- conversion -----------------------------------------------------------------

    def as_stream(self) -> "DataStream":
        """View this bounded data as a DataStream -- the unified model
        makes this a no-op re-interpretation, not a copy."""
        return DataStream(self.env, self.node, self._partitioner,
                          self._extra_upstream)

    def then_stream(self, stream: Any, cutover: Optional[int] = None, *,
                    timestamp_fn: Optional[Callable[[Any], int]] = None,
                    timestamped: bool = False,
                    history_burst: int = 8,
                    name: str = "hybrid-source") -> "DataStream":
        """Continue this bounded history with a live stream: one logical
        pipeline that drains the history through the batched path, then
        hands its operator state to the stream side at the seam.

        ``stream`` may be a :class:`~repro.api.stream.DataStream` source
        handle, a replayable factory of iterables, or a plain iterable.
        With ``cutover=T`` (event time, requires ``timestamp_fn`` or
        timestamped sides) the seam is watermark-precise: history records
        after ``T`` and stream records at or before ``T`` are dropped
        (and counted), and ``Watermark(T)`` is emitted at the hand-off.
        Without a cutover the sides are simply concatenated.
        """
        return self.env._hybrid(self, stream, cutover=cutover,
                                timestamp_fn=timestamp_fn,
                                timestamped=timestamped,
                                history_burst=history_burst, name=name)


class GroupedDataSet:
    """A DataSet grouped by key, awaiting a group-wise operation."""

    def __init__(self, dataset: DataSet,
                 key_selector: Callable[[Any], Any]) -> None:
        self.dataset = dataset
        self.key_selector = key_selector

    def reduce_group(self, reduce_fn: Callable[[Any, List[Any]], Any],
                     parallelism: Optional[int] = None,
                     name: str = "group-reduce") -> DataSet:
        """``reduce_fn(key, values) -> value`` once per key."""
        key_selector = self.key_selector
        return self.dataset._then(
            name, lambda: GroupReduceOperator(key_selector, reduce_fn, name),
            parallelism=parallelism or self.dataset.env.parallelism,
            partitioner=HashPartitioner(key_selector), allow_chaining=False)

    def reduce(self, reduce_fn: Callable[[Any, Any], Any],
               name: str = "grouped-reduce") -> DataSet:
        """Pairwise reduce within each group; emits one value per key."""
        return self.reduce_group(
            lambda key, values: functools.reduce(reduce_fn, values),
            name=name)

    def fold(self, initial: Any, fold_fn: Callable[[Any, Any], Any],
             name: str = "grouped-fold") -> DataSet:
        """Per-key fold from ``initial``; emits one ``(key, accumulator)``
        pair per group (parity with :meth:`KeyedStream.fold`, which emits
        the *running* value -- on bounded data the final emission is the
        same)."""
        return self.reduce_group(
            lambda key, values: (key, functools.reduce(fold_fn, values,
                                                       initial)),
            name=name)

    def count(self, name: str = "group-count") -> DataSet:
        """``(key, count)`` per group."""
        return self.reduce_group(lambda key, values: (key, len(values)),
                                 name=name)

    def sum(self, value_fn: Callable[[Any], float] = lambda v: v,
            name: str = "group-sum") -> DataSet:
        """``(key, sum)`` per group."""
        return self.reduce_group(
            lambda key, values: (key, sum(value_fn(v) for v in values)),
            name=name)
