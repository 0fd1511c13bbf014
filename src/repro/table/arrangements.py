"""The per-Environment arrangement catalog: compile-time sharing.

When ``EngineConfig(share_arrangements=True)`` (the default) and a
query's plan was rewritten onto an :class:`~repro.table.plan.ArrangementScan`,
this catalog decides whether the arranged input already exists.  The
sharing key is

    (source node id, plan-prefix fingerprint, key columns)

-- i.e. *the same relation, filtered and projected the same way, keyed
the same way*.  The first query to need it builds the maintenance
pipeline once: prefix operators -> hash-partitioned
``ArrangeOperator`` maintaining one :class:`ShardedArrangement`.  Every
later query (group-by *or* join on the same key) just wires a reader
node onto the existing arrange node; hundreds of queries share a
handful of maintained indexes the way Cutty queries share window
slices.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.api.handle import _wire
from repro.api.stream import DataStream
from repro.runtime.batch import (
    ArrangementJoinOperator,
    ArrangementScanOperator,
    ArrangeOperator,
)
from repro.runtime.partition import HashPartitioner
from repro.state.arrangement import ShardedArrangement
from repro.table.plan import ArrangementScan
from repro.table.table import _group_reducer, _key_selector, _merge_on


class _Entry:
    def __init__(self, index: int, sharded: ShardedArrangement,
                 arranged: DataStream) -> None:
        self.index = index
        self.sharded = sharded
        #: The arrange stage; emits no records, only the control signal
        #: (watermarks, end-of-stream) its readers advance on.
        self.arranged = arranged


class ArrangementCatalog:
    """Maps (source, prefix fingerprint, keys) -> maintained arrangement."""

    def __init__(self, env) -> None:
        self.env = env
        self._entries: Dict[Tuple[int, str, Tuple[str, ...]], _Entry] = {}
        self._readers = 0

    def __len__(self) -> int:
        return len(self._entries)

    def arrangements(self) -> List[ShardedArrangement]:
        return [entry.sharded for entry in self._entries.values()]

    # ------------------------------------------------------------------

    def _entry_for(self, arranged_table, op: ArrangementScan) -> _Entry:
        source_node = arranged_table._source_stream.node
        key = (source_node.node_id, op.fingerprint, op.keys)
        entry = self._entries.get(key)
        if entry is not None:
            return entry

        env = self.env
        index = len(self._entries)
        name = "a%d[%s by=%s]" % (index, source_node.name,
                                  ",".join(op.keys))
        sharded = ShardedArrangement(
            name, op.keys, env.parallelism,
            compaction_interval=env.config.arrangement_compaction_interval)

        stream = arranged_table._source_stream
        if arranged_table._time_column is not None:
            # Event-time input: watermarks advance during the run, so
            # the arrangement seals real intermediate versions (and
            # compaction has work to do before the final frontier).
            stream = arranged_table._with_event_time(stream)
        for prefix_op in op.prefix[1:]:  # [0] is the Scan itself
            stream = arranged_table._compile_op(stream, prefix_op)

        key_fn = _key_selector(op.keys)
        arrange_node = stream.key_by(key_fn)._connect_keyed(
            "arrange[%s]" % name,
            lambda: ArrangeOperator(sharded, key_fn, name=name),
            allow_chaining=False)
        entry = _Entry(index, sharded, DataStream(env, arrange_node))
        self._entries[key] = entry
        return entry

    # ------------------------------------------------------------------

    def _reader(self, kind: str, entry: _Entry, operator_factory,
                data_inputs=()) -> DataStream:
        """One query's reader vertex: co-located with the arrange stage,
        whose control edge is its last input."""
        self._readers += 1
        control = (entry.arranged, None, len(data_inputs))
        return DataStream(self.env, _wire(
            self.env, "arrangement-%s[a%d.q%d]" % (kind, entry.index,
                                                   self._readers),
            operator_factory, list(data_inputs) + [control],
            entry.arranged.node.parallelism, allow_chaining=False))

    def compile_group_scan(self, table, op: ArrangementScan):
        """A reader node folding each key's arranged rows with this
        query's own aggregations (the aggregation is per-query; only the
        keyed index is shared)."""
        entry = self._entry_for(table, op)
        reduce_group = _group_reducer(op.keys, op.aggregations)
        return self._reader(
            "scan", entry,
            lambda: ArrangementScanOperator(entry.sharded, reduce_group))

    def compile_join(self, table, left_stream, op: ArrangementScan):
        """A reader node probing the arranged *right* side with this
        query's left stream."""
        entry = self._entry_for(op.right_table, op)
        left_key, merge = _key_selector(op.keys), _merge_on(op.keys)
        return self._reader(
            "join", entry,
            lambda: ArrangementJoinOperator(entry.sharded, left_key, merge),
            [(left_stream, HashPartitioner(left_key), 0)])
