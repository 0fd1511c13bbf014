"""Blocking (batch) operators: data at rest on the streaming runtime.

These operators realise the "single pipelined engine" claim: a DataSet
program lowers to the same task/channel runtime as a DataStream program,
the only difference being that these operators *materialise* their input
(``process`` buffers) and produce output when the bounded input ends
(``finish``).  No second execution engine exists.

The shared-arrangement writer and readers at the end of the module are
the same kind of operator over a shared index: they read at ``finish``
and emit through the helpers :class:`GroupReduceOperator` /
:class:`HashJoinOperator` emit through, so the order is the same.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.runtime.elements import MAX_TIMESTAMP, MIN_TIMESTAMP, Record
from repro.runtime.operators import (
    Operator,
    OperatorContext,
    rescale_keyed_dict_state,
)
from repro.runtime.partition import owner_of_key


def _emit_groups(ctx: OperatorContext, groups: Dict[Any, List[Any]],
                 reduce_fn: Callable[[Any, List[Any]], Any]) -> None:
    """The emission order of a group-by, materialised or arranged:
    ``reduce_fn(key, values)`` per key, keys sorted by ``repr``."""
    for key in sorted(groups, key=repr):
        ctx.emit(reduce_fn(key, groups[key]))


def _emit_matches(ctx: OperatorContext, left: Dict[Any, List[Any]],
                  keyed_right: Iterable[Tuple[Any, Any]],
                  join_fn: Callable[[Any, Any], Any]) -> None:
    """The emission order of an equi-join, materialised or arranged:
    ``(key, right)`` pairs in right-side arrival order, each against its
    key's left values in theirs."""
    for key, right_value in keyed_right:
        for left_value in left.get(key, ()):
            ctx.emit(join_fn(left_value, right_value))


class GroupReduceOperator(Operator):
    """Full per-key grouping; ``reduce_fn(key, values) -> result`` runs once
    per key at end of input."""

    def __init__(self, key_selector: Callable[[Any], Any],
                 reduce_fn: Callable[[Any, List[Any]], Any],
                 name: str = "group-reduce") -> None:
        super().__init__()
        self.name = name
        self._key_selector = key_selector
        self._reduce_fn = reduce_fn
        self._groups: Dict[Any, List[Any]] = {}

    def process(self, record: Record) -> None:
        self._groups.setdefault(self._key_selector(record.value),
                                []).append(record.value)

    def finish(self) -> None:
        _emit_groups(self.ctx, self._groups, self._reduce_fn)
        self._groups.clear()

    def snapshot_state(self) -> Any:
        return self._groups

    def restore_state(self, state: Any) -> None:
        self._groups = state

    def rescale_operator_state(self, states, subtask_index: int,
                               parallelism: int) -> Any:
        return rescale_keyed_dict_state(states, subtask_index, parallelism)


class SortOperator(Operator):
    """Materialising total sort (single parallelism recommended)."""

    def __init__(self, key_fn: Optional[Callable[[Any], Any]] = None,
                 descending: bool = False, name: str = "sort") -> None:
        super().__init__()
        self.name = name
        self._key_fn = key_fn
        self._descending = descending
        self._buffer: List[Any] = []

    def process(self, record: Record) -> None:
        self._buffer.append(record.value)

    def finish(self) -> None:
        self._buffer.sort(key=self._key_fn, reverse=self._descending)
        for value in self._buffer:
            self.ctx.emit(value)
        self._buffer.clear()

    def snapshot_state(self) -> Any:
        return self._buffer

    def restore_state(self, state: Any) -> None:
        self._buffer = state


class DistinctOperator(Operator):
    """Emits each distinct value once, at end of input, in first-seen order."""

    def __init__(self, key_fn: Optional[Callable[[Any], Any]] = None,
                 name: str = "distinct") -> None:
        super().__init__()
        self.name = name
        self._key_fn = key_fn or (lambda value: value)
        self._seen: Dict[Any, Any] = {}

    def process(self, record: Record) -> None:
        key = self._key_fn(record.value)
        if key not in self._seen:
            self._seen[key] = record.value

    def finish(self) -> None:
        for value in self._seen.values():
            self.ctx.emit(value)
        self._seen.clear()

    def snapshot_state(self) -> Any:
        return self._seen

    def restore_state(self, state: Any) -> None:
        self._seen = state


class HashJoinOperator(Operator):
    """Two-input equi-join: builds a hash table on input 1, probes with
    input 2 once both inputs ended.

    Emits ``join_fn(left, right)`` for every matching pair.  Both sides
    are materialised because either may finish first in a pipelined
    runtime.
    """

    def __init__(self, left_key: Callable[[Any], Any],
                 right_key: Callable[[Any], Any],
                 join_fn: Callable[[Any, Any], Any] = lambda l, r: (l, r),
                 name: str = "hash-join") -> None:
        super().__init__()
        self.name = name
        self._left_key = left_key
        self._right_key = right_key
        self._join_fn = join_fn
        self._left: Dict[Any, List[Any]] = {}
        self._right: List[Any] = []

    def process(self, record: Record) -> None:
        self._left.setdefault(self._left_key(record.value),
                              []).append(record.value)

    def process2(self, record: Record) -> None:
        self._right.append(record.value)

    def finish(self) -> None:
        right_key = self._right_key
        _emit_matches(self.ctx, self._left,
                      ((right_key(value), value) for value in self._right),
                      self._join_fn)
        self._left.clear()
        self._right.clear()

    def snapshot_state(self) -> Any:
        return {"left": self._left, "right": self._right}

    def restore_state(self, state: Any) -> None:
        self._left = state["left"]
        self._right = state["right"]

    def rescale_operator_state(self, states, subtask_index: int,
                               parallelism: int) -> Any:
        left = rescale_keyed_dict_state(
            [state["left"] for state in states if state],
            subtask_index, parallelism)
        right = [value
                 for state in states if state
                 for value in state["right"]
                 if owner_of_key(self._right_key(value), parallelism)
                 == subtask_index]
        return {"left": left, "right": right}


class CountOperator(Operator):
    """Counts its bounded input; emits one integer at the end."""

    def __init__(self, name: str = "count") -> None:
        super().__init__()
        self.name = name
        self._count = 0

    def process(self, record: Record) -> None:
        self._count += 1

    def finish(self) -> None:
        self.ctx.emit(self._count)
        self._count = 0

    def snapshot_state(self) -> Any:
        return self._count

    def restore_state(self, state: Any) -> None:
        self._count = state


class FoldAllOperator(Operator):
    """Folds the whole bounded input into one value (batch global aggregate)."""

    def __init__(self, initial: Any, fold_fn: Callable[[Any, Any], Any],
                 name: str = "fold-all") -> None:
        super().__init__()
        self.name = name
        self._initial = initial
        self._fold_fn = fold_fn
        self._acc = initial
        self._saw_any = False

    def process(self, record: Record) -> None:
        self._acc = self._fold_fn(self._acc, record.value)
        self._saw_any = True

    def finish(self) -> None:
        self.ctx.emit(self._acc)
        self._acc = self._initial
        self._saw_any = False

    def snapshot_state(self) -> Any:
        return {"acc": self._acc, "saw_any": self._saw_any}

    def restore_state(self, state: Any) -> None:
        self._acc = state["acc"]
        self._saw_any = state["saw_any"]


# ---------------------------------------------------------------------------
# Shared-arrangement operators
#
# One ArrangeOperator maintains a ShardedArrangement shard; any number of
# reader operators (scan / join) attach snapshot handles to it.  The
# correctness hinge is pure dataflow ordering: the arrange task seals the
# final version in ``finish()`` *before* broadcasting END_OF_STREAM, and
# every reader's control input comes from the arrange node, so a reader's
# ``finish()`` can only run after the arrangement is complete.


class ArrangeOperator(Operator):
    """Maintains one shard of a shared multiversioned index.

    Emits no records -- its task forwards watermarks and end-of-stream
    to the reader nodes as the control signal for snapshot advancement.
    Each watermark advance seals a version; every
    ``compaction_interval`` sealed versions, deltas below the readers'
    low watermark fold into the base (bounded memory under a steady
    watermark).
    """

    def __init__(self, sharded: "Any", key_fn: Callable[[Any], Any],
                 name: str = "arrange") -> None:
        super().__init__()
        self.name = name
        self._sharded = sharded
        self._key_fn = key_fn
        self._shard = None
        self._seals_since_compaction = 0

    def open(self, ctx: OperatorContext) -> None:
        super().open(ctx)
        # Every deployment builds fresh operator instances over the same
        # closed-over ShardedArrangement: reset the shard so replayed
        # input is not double-counted and reader handles of discarded
        # operator instances are dropped.
        self._shard = self._sharded.shard(ctx.subtask_index)
        self._shard.reset()
        self._seals_since_compaction = 0

    def process(self, record: Record) -> None:
        row = record.value
        self._shard.insert(self._key_fn(row), row)

    def on_watermark(self, timestamp: int) -> None:
        if timestamp <= MIN_TIMESTAMP:
            return
        sealed_before = self._shard.sealed
        self._shard.seal(min(timestamp, MAX_TIMESTAMP))
        if self._shard.sealed > sealed_before:
            self._seals_since_compaction += 1
        if self._seals_since_compaction >= self._shard.compaction_interval:
            self._shard.compact()
            self._seals_since_compaction = 0

    def finish(self) -> None:
        self._shard.seal_final()

    def snapshot_state(self) -> Any:
        return self._shard.snapshot()

    def restore_state(self, state: Any) -> None:
        self._shard.restore(state)

    def arrangement_report(self) -> Dict[str, Any]:
        # Nothing to report before the deployment opened this operator.
        return self._shard.stats() if self._shard is not None else {}


class _ArrangementReader(Operator):
    """Shared handle plumbing for arrangement reader operators.

    Handles attach *lazily* (first watermark / finish), never in
    ``open``: build order is unspecified, so the arrange operator's
    ``open`` may reset the shard after this operator opened."""

    def __init__(self, sharded: "Any", name: str) -> None:
        super().__init__()
        self.name = name
        self._sharded = sharded
        self._handle = None

    def _ensure_handle(self):
        if self._handle is None or not self._handle.attached:
            shard = self._sharded.shard(self.ctx.subtask_index)
            self._handle = shard.attach()
        return self._handle

    def on_watermark(self, timestamp: int) -> None:
        if timestamp <= MIN_TIMESTAMP:
            return
        self._ensure_handle().advance_to(timestamp)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.detach()
            self._handle = None


class ArrangementScanOperator(_ArrangementReader):
    """Serves one group-by query from a shared arrangement: folds each
    key's arranged rows with the query's own ``reduce_fn`` at end of
    input.  It emits through :func:`_emit_groups` like
    :class:`GroupReduceOperator`, so a shared plan is byte-identical to
    the independently planned one."""

    def __init__(self, sharded: "Any",
                 reduce_fn: Callable[[Any, List[Any]], Any],
                 name: str = "arrangement-scan") -> None:
        super().__init__(sharded, name)
        self._reduce_fn = reduce_fn

    def process(self, record: Record) -> None:
        raise RuntimeError(
            "arrangement scan has no data input; it reads via its handle")

    def finish(self) -> None:
        _emit_groups(self.ctx, self._ensure_handle().read_frontier(),
                     self._reduce_fn)


class ArrangementJoinOperator(_ArrangementReader):
    """Probes an arranged right side with this query's left input.

    Input 0 buffers left rows per key; input 1 is the control edge from
    the arrange node (watermarks and end-of-stream only).  ``finish``
    replays arranged rows in arrival order through
    :func:`_emit_matches`, as :class:`HashJoinOperator` does its right
    side."""

    def __init__(self, sharded: "Any", left_key: Callable[[Any], Any],
                 join_fn: Callable[[Any, Any], Any],
                 name: str = "arrangement-join") -> None:
        super().__init__(sharded, name)
        self._left_key = left_key
        self._join_fn = join_fn
        self._left: Dict[Any, List[Any]] = {}

    def process(self, record: Record) -> None:
        value = record.value
        self._left.setdefault(self._left_key(value), []).append(value)

    def process2(self, record: Record) -> None:
        raise RuntimeError(
            "the arrangement control input carries no records")

    def finish(self) -> None:
        _emit_matches(self.ctx, self._left,
                      self._ensure_handle().read_frontier_rows(),
                      self._join_fn)
        self._left.clear()

    def snapshot_state(self) -> Any:
        return {"left": self._left}

    def restore_state(self, state: Any) -> None:
        self._left = state["left"]

    def rescale_operator_state(self, states, subtask_index: int,
                               parallelism: int) -> Any:
        return {"left": rescale_keyed_dict_state(
            [state["left"] for state in states if state],
            subtask_index, parallelism)}
