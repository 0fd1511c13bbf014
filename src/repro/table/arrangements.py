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

from typing import Any, Dict, List, Tuple

from repro.runtime.partition import ForwardPartitioner, HashPartitioner
from repro.state.arrangement import ShardedArrangement
from repro.table.plan import ArrangementScan, LogicalOp, Row


class _Entry:
    def __init__(self, index: int, sharded: ShardedArrangement,
                 arrange_node) -> None:
        self.index = index
        self.sharded = sharded
        self.arrange_node = arrange_node
        self.attached_queries = 0


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
        parallelism = env.parallelism
        interval = getattr(env.config, "arrangement_compaction_interval", 8)
        sharded = ShardedArrangement(name, op.keys, parallelism,
                                     compaction_interval=interval)

        stream = arranged_table._source_stream
        if arranged_table._time_column is not None:
            # Event-time input: watermarks advance during the run, so
            # the arrangement seals real intermediate versions (and
            # compaction has work to do before the final frontier).
            from repro.time.watermarks import WatermarkStrategy
            time_column = arranged_table._time_column
            strategy = WatermarkStrategy.for_bounded_out_of_orderness(
                lambda row, _tc=time_column: row[_tc],
                arranged_table._watermark_delay)
            stream = stream.assign_timestamps_and_watermarks(strategy)
        for prefix_op in op.prefix[1:]:  # [0] is the Scan itself
            stream = arranged_table._compile_op(stream, prefix_op)

        from repro.runtime.batch import ArrangeOperator
        key_fn = sharded.key_fn()
        arrange_node = env.graph.new_node(
            "arrange[%s]" % name,
            lambda: ArrangeOperator(sharded, key_fn, name=name),
            parallelism, allow_chaining=False)
        env.graph.add_edge(stream.node.node_id, arrange_node.node_id,
                           HashPartitioner(key_fn))

        entry = _Entry(index, sharded, arrange_node)
        self._entries[key] = entry
        return entry

    # ------------------------------------------------------------------

    def compile_group_scan(self, table, op: ArrangementScan):
        """A reader node folding each key's arranged rows with this
        query's own aggregations (the aggregation is per-query; only the
        keyed index is shared)."""
        from repro.api.stream import DataStream
        from repro.runtime.batch import ArrangementScanOperator
        from repro.table.table import _RowAggregates

        entry = self._entry_for(table, op)
        entry.attached_queries += 1
        self._readers += 1
        keys = op.keys
        aggregate = _RowAggregates(op.aggregations)

        def reduce_group(key, rows, _agg=aggregate, _keys=keys):
            acc = _agg.create_accumulator()
            for row in rows:
                acc = _agg.add(row, acc)
            out = dict(zip(_keys, key))
            out.update(_agg.get_result(acc))
            return out

        node = self.env.graph.new_node(
            "arrangement-scan[a%d.q%d]" % (entry.index, self._readers),
            lambda: ArrangementScanOperator(entry.sharded, reduce_group),
            entry.arrange_node.parallelism, allow_chaining=False)
        self.env.graph.add_edge(entry.arrange_node.node_id, node.node_id,
                                ForwardPartitioner())
        return DataStream(self.env, node)

    def compile_join(self, table, left_stream, op: ArrangementScan):
        """A reader node probing the arranged *right* side with this
        query's left stream."""
        from repro.api.stream import DataStream
        from repro.runtime.batch import ArrangementJoinOperator

        entry = self._entry_for(op.right_table, op)
        entry.attached_queries += 1
        self._readers += 1
        on = op.keys

        def merge(left_row: Row, right_row: Row, _on=on) -> Row:
            merged = dict(left_row)
            for column, value in right_row.items():
                if column not in _on:
                    merged[column] = value
            return merged

        def left_key(row: Row, _on=on) -> Tuple[Any, ...]:
            return tuple(row[k] for k in _on)

        node = self.env.graph.new_node(
            "arrangement-join[a%d.q%d]" % (entry.index, self._readers),
            lambda: ArrangementJoinOperator(entry.sharded, left_key, merge),
            entry.arrange_node.parallelism, allow_chaining=False)
        self.env.graph.add_edge(left_stream.node.node_id, node.node_id,
                                HashPartitioner(left_key), target_input=0)
        self.env.graph.add_edge(entry.arrange_node.node_id, node.node_id,
                                ForwardPartitioner(), target_input=1)
        return DataStream(self.env, node)
