"""Partitioned replayable source: the Kafka-consumer-group model.

`IteratorSource` splits one collection positionally, which pins its
parallelism forever (replay ownership would shift). Real deployments
read *partitioned* logs instead: ownership is per partition, offsets are
per partition, and rescaling reassigns whole partitions — which is
exactly what this source implements, making **end-to-end job rescaling**
(sources included) possible through savepoints.

Each subtask owns partitions ``p`` with ``p % parallelism ==
subtask_index`` and round-robins its reads across them; snapshots store
``{partition: offset}`` (redistributed by the same ownership rule) and
the round-robin position, so a replay interleaves as the first run did.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List

from repro.runtime.operators import (
    OperatorContext,
    ReplayCursor,
    SourceContext,
    SourceOperator,
)

PartitionFactory = Callable[[], Iterable[Any]]


class PartitionedSource(SourceOperator):
    """A source over N independent, replayable partitions."""

    rescalable_source = True

    def __init__(self, partition_factories: List[PartitionFactory],
                 timestamped: bool = False,
                 name: str = "partitioned-source") -> None:
        super().__init__()
        if not partition_factories:
            raise ValueError("at least one partition is required")
        self.name = name
        self._factories = list(partition_factories)
        self._timestamped = timestamped

    def open(self, ctx: OperatorContext) -> None:
        super().open(ctx)
        #: ``{owned partition: its replay cursor}``, in partition order.
        self._cursors: Dict[int, ReplayCursor] = {
            partition: ReplayCursor(factory)
            for partition, factory in enumerate(self._factories)
            if partition % ctx.parallelism == ctx.subtask_index}
        #: Round-robin position over the partitions still live.
        self._turn = 0

    def emit_batch(self, source_ctx: SourceContext, max_records: int) -> bool:
        live = [cursor for cursor in self._cursors.values()
                if not cursor.exhausted]
        run: List[Any] = []
        while live and len(run) < max_records:
            cursor = live[self._turn % len(live)]
            self._turn += 1
            run.extend(cursor.take(1))
            if cursor.exhausted:
                live.remove(cursor)
        self._emit_run(source_ctx, run, self._timestamped)
        return bool(live)

    # -- state -------------------------------------------------------------

    def snapshot_state(self) -> Any:
        """Offsets per partition, plus what decides the interleaving --
        whose turn it is and which partitions were already found drained
        -- so a replay deals the partitions exactly as the first run."""
        return {"offsets": {partition: cursor.offset
                            for partition, cursor in self._cursors.items()},
                "turn": self._turn,
                "drained": [partition
                            for partition, cursor in self._cursors.items()
                            if cursor.exhausted]}

    def restore_state(self, state: Any) -> None:
        self._turn = state["turn"]
        for partition, offset in state["offsets"].items():
            if partition in state["drained"]:   # marked, not re-read
                self._cursors[partition].set_position(offset, exhausted=True)
            else:
                self._cursors[partition].rewind(offset)

    def rescale_operator_state(self, states, subtask_index: int,
                               parallelism: int) -> Any:
        """Partition offsets redistribute by partition ownership — the
        one source kind that CAN rescale.  The new subtask owns a
        different set of partitions, so its turn starts over."""
        states = [state for state in states if state]
        offsets = {partition: offset for state in states
                   for partition, offset in state["offsets"].items()
                   if partition % parallelism == subtask_index}
        drained = [partition for state in states
                   for partition in state["drained"] if partition in offsets]
        return {"offsets": offsets, "turn": 0, "drained": drained}


def partition_round_robin(values: List[Any],
                          num_partitions: int) -> List[PartitionFactory]:
    """Split a collection into ``num_partitions`` replayable partitions
    (element i goes to partition ``i % num_partitions``)."""
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    materialised = list(values)
    return [(lambda p=p: materialised[p::num_partitions])
            for p in range(num_partitions)]
