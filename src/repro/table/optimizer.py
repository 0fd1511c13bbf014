"""Rule-based optimizer for Table plans.

Three classic rewrites, applied to fixpoint:

1. **Predicate pushdown** -- a ``Where`` moves before a ``Select`` when
   every column it reads exists before the projection (i.e. it does not
   depend on a derived column).  Filtering earlier shrinks every
   downstream operator's input.
2. **Filter fusion** -- adjacent ``Where`` ops merge into one (single
   operator, single pass).
3. **Projection pruning** -- a ``Select`` is inserted right after the
   ``Scan`` keeping only the columns the rest of the plan ever reads, so
   wide rows are narrowed at the source.

The rewrites are proven behaviour-preserving by the equivalence tests in
``tests/test_table_api.py`` (optimized vs. unoptimized execution over
randomized inputs).
"""

from __future__ import annotations

from typing import List, Set

from repro.table.plan import (
    ArrangementScan,
    GroupAgg,
    Join,
    LogicalOp,
    Scan,
    Select,
    Where,
    WindowAgg,
)


def optimize(ops: List[LogicalOp],
             share_arrangements: bool = False) -> List[LogicalOp]:
    ops = list(ops)
    changed = True
    while changed:
        changed = push_down_predicates(ops) or fuse_filters(ops)
    if share_arrangements:
        # The sharing rewrite must see the *pre-pruning* prefix: pruning
        # narrows each query's scan to its own needs, which would give
        # otherwise-identical inputs different fingerprints.  The
        # arrangement stores full input rows precisely so that many
        # queries with different output columns can share it.
        ops = rewrite_shared_arrangements(ops)
    ops = prune_projection(ops)
    ops = remove_identity_selects(ops)
    return ops


def _arrangeable_prefix(ops: List[LogicalOp]) -> bool:
    """A plan (prefix) can feed an arrangement iff it is a bounded scan
    followed only by stateless row ops -- exactly what the arrange
    operator can maintain incrementally under one key."""
    if not ops or not isinstance(ops[0], Scan) or not ops[0].bounded:
        return False
    return all(isinstance(op, (Scan, Where, Select)) for op in ops)


def rewrite_shared_arrangements(ops: List[LogicalOp]) -> List[LogicalOp]:
    """Rewire group-bys and joins onto shared ``ArrangementScan`` nodes.

    Two rules, both conservative (a plan that does not match runs
    exactly as before):

    * ``Scan (Where|Select)* GroupAgg ...`` -- the head becomes a
      ``group`` ArrangementScan capturing the prefix and group keys.
    * ``... Join ...`` whose right table's optimized plan is stateless
      -- the Join becomes a ``join`` ArrangementScan arranging the
      right side by the join columns.

    Queries whose (prefix fingerprint, keys) match attach to the same
    maintained index at compile time (see
    :class:`repro.table.arrangements.ArrangementCatalog`).
    """
    if any(isinstance(op, WindowAgg) for op in ops):
        return ops  # event-time plans keep the dedicated window path
    ops = list(ops)
    for index, op in enumerate(ops):
        if isinstance(op, GroupAgg) and _arrangeable_prefix(ops[:index]):
            head = ArrangementScan("group", op.keys, prefix=ops[:index],
                                   aggregations=op.aggregations)
            ops = [head] + ops[index + 1:]
            break  # the rewritten head is no longer a Scan prefix
    for index, op in enumerate(ops):
        if not isinstance(op, Join):
            continue
        right_plan = optimize(op.right_table.logical_plan())
        if not _arrangeable_prefix(right_plan):
            continue
        ops[index] = ArrangementScan(
            "join", op.on, prefix=right_plan,
            right_table=op.right_table, right_columns=op.right_columns)
    return ops


def remove_identity_selects(ops: List[LogicalOp]) -> List[LogicalOp]:
    """Drop projections that keep exactly their input schema (they can
    appear after pruning makes a user Select redundant)."""
    result: List[LogicalOp] = []
    columns = ()
    for op in ops:
        out = op.columns_out(columns)
        if (isinstance(op, Select) and not op.derived
                and tuple(op.keep) == tuple(columns)):
            continue  # identity: schema and order unchanged
        result.append(op)
        columns = out
    return result


def push_down_predicates(ops: List[LogicalOp]) -> bool:
    """Swap ``Select -> Where`` into ``Where -> Select`` when legal."""
    for index in range(len(ops) - 1):
        first, second = ops[index], ops[index + 1]
        if isinstance(first, Select) and isinstance(second, Where):
            # Legal iff the predicate only reads columns that exist
            # before the projection AND survive it unrenamed.
            if second.reads <= set(first.keep):
                ops[index], ops[index + 1] = second, first
                return True
    return False


def fuse_filters(ops: List[LogicalOp]) -> bool:
    for index in range(len(ops) - 1):
        first, second = ops[index], ops[index + 1]
        if isinstance(first, Where) and isinstance(second, Where):
            p1, p2 = first.predicate, second.predicate
            fused = Where(lambda row, _p1=p1, _p2=p2: _p1(row) and _p2(row),
                          reads=tuple(first.reads | second.reads),
                          description="%s AND %s" % (first.description,
                                                     second.description))
            ops[index:index + 2] = [fused]
            return True
    return False


def prune_projection(ops: List[LogicalOp]) -> List[LogicalOp]:
    """Narrow the scan to the columns the plan actually uses."""
    if not ops or not isinstance(ops[0], Scan):
        return ops
    scan = ops[0]
    needed: Set[str] = set()
    terminal_needs_all = True
    for op in ops[1:]:
        if isinstance(op, Where):
            needed |= op.reads
        elif isinstance(op, (Select, GroupAgg, WindowAgg)):
            needed |= op.reads
            terminal_needs_all = False
            break  # later ops see only this op's output
        elif isinstance(op, (Join, ArrangementScan)):
            # Every left column flows through the join: no pruning, but
            # record the threaded reads (the join keys) so the scan is
            # never narrowed below what the probe needs.
            needed |= op.reads
            break
    if terminal_needs_all:
        return ops  # plan ends in raw rows: every column is observable
    keep = tuple(column for column in scan.columns if column in needed)
    if set(keep) == set(scan.columns):
        return ops
    pruning = Select(keep=keep, derived={}, derived_reads={})
    return [scan, pruning] + ops[1:]
