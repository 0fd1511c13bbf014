"""The Table facade: declarative relational operations over dict rows.

A thin, optimizable layer on top of the uniform programming model: the
same ``select / where / group_by / window`` vocabulary works on bounded
relations (data at rest) and streaming relations (data in motion), and
compiles down to the existing DataStream/DataSet operators after the
rule-based optimizer has rewritten the logical plan.

    table = env.table(rows, time_column="ts")
    result = (table
              .where(lambda r: r["amount"] > 0, reads=("amount",))
              .select("user", "amount", "ts")
              .window(Tumble("ts", 60_000))
              .group_by("user")
              .agg(revenue=("sum", "amount"), orders=("count", None))
              .collect())
    env.execute()
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api.dataset import DataSet
from repro.table.optimizer import optimize
from repro.table.plan import (
    AggSpec,
    ArrangementScan,
    GroupAgg,
    Join as _JoinOp,
    LogicalOp,
    Row,
    Scan,
    Select,
    Session,
    Slide,
    Tumble,
    Where,
    WindowAgg,
    WindowDef,
    explain,
    schema_after,
    validate_agg_spec,
)
from repro.time.watermarks import WatermarkStrategy
from repro.windowing.aggregates import AggregateFunction
from repro.windowing.assigners import (
    EventTimeSessionWindows,
    SlidingEventTimeWindows,
    TumblingEventTimeWindows,
)


class _ColumnAggregate(AggregateFunction):
    """sum/count/avg/min/max over one column of dict rows."""

    def __init__(self, fn_name: str, column: Optional[str]) -> None:
        self.fn_name = fn_name
        self.column = column
        self.invertible = fn_name in ("sum", "count", "avg")

    def create_accumulator(self):
        if self.fn_name == "count":
            return 0
        if self.fn_name == "sum":
            return 0.0
        if self.fn_name == "avg":
            return (0.0, 0)
        if self.fn_name == "min":
            return math.inf
        return -math.inf  # max

    def add(self, row: Row, acc):
        if self.fn_name == "count":
            return acc + 1
        value = row[self.column]
        if self.fn_name == "sum":
            return acc + value
        if self.fn_name == "avg":
            return (acc[0] + value, acc[1] + 1)
        if self.fn_name == "min":
            return value if value < acc else acc
        return value if value > acc else acc

    def merge(self, a, b):
        if self.fn_name in ("count", "sum"):
            return a + b
        if self.fn_name == "avg":
            return (a[0] + b[0], a[1] + b[1])
        if self.fn_name == "min":
            return a if a < b else b
        return a if a > b else b

    def get_result(self, acc):
        if self.fn_name == "avg":
            total, count = acc
            return total / count if count else None
        if self.fn_name == "min":
            return None if acc is math.inf else acc
        if self.fn_name == "max":
            return None if acc is -math.inf else acc
        return acc


class _RowAggregates(AggregateFunction):
    """All aggregations of a spec in one accumulator tuple."""

    def __init__(self, aggregations: AggSpec) -> None:
        self._names = list(aggregations)
        self._members = [_ColumnAggregate(fn, col)
                         for fn, col in aggregations.values()]

    def create_accumulator(self):
        return tuple(m.create_accumulator() for m in self._members)

    def add(self, row, acc):
        return tuple(m.add(row, a) for m, a in zip(self._members, acc))

    def merge(self, a, b):
        return tuple(m.merge(x, y)
                     for m, x, y in zip(self._members, a, b))

    def get_result(self, acc):
        return {name: m.get_result(a)
                for name, m, a in zip(self._names, self._members, acc)}


# The row closures of a group-by and a join.  The Table compiler and the
# arrangement catalog both build theirs here, which is what makes a
# shared plan byte-identical to the independently planned one.

def _key_selector(columns: Tuple[str, ...]) -> Callable[[Row], Tuple]:
    """The tuple of ``columns`` a row is grouped or joined on."""
    return lambda row: tuple(row[column] for column in columns)


def _group_reducer(keys: Tuple[str, ...], aggregations: AggSpec):
    """``reduce_fn(key, rows) -> row``: the key columns plus every
    aggregation of the spec folded over the group."""
    aggregate = _RowAggregates(aggregations)

    def reduce_group(key: Tuple, rows: List[Row]) -> Row:
        acc = aggregate.create_accumulator()
        for row in rows:
            acc = aggregate.add(row, acc)
        out = dict(zip(keys, key))
        out.update(aggregate.get_result(acc))
        return out
    return reduce_group


def _merge_on(on: Tuple[str, ...]) -> Callable[[Row, Row], Row]:
    """``join_fn(left, right) -> row``: the left row plus the right's
    columns other than the join keys."""
    def merge(left_row: Row, right_row: Row) -> Row:
        merged = dict(left_row)
        for column, value in right_row.items():
            if column not in on:
                merged[column] = value
        return merged
    return merge


def make_table(env, rows: List[Row],
               columns: Optional[Tuple[str, ...]] = None,
               bounded: bool = True,
               time_column: Optional[str] = None,
               watermark_delay: int = 0,
               name: str = "rows") -> "Table":
    """A relation over an in-memory list of dict rows (the implementation
    behind ``env.table``).

    ``bounded=False`` marks the relation as streaming: windowed
    aggregations become available (``time_column`` required) and
    bounded-only ops (plain ``group_by``) are rejected.
    """
    materialised = [dict(row) for row in rows]
    if not materialised and columns is None:
        raise ValueError("empty relation needs explicit columns")
    inferred = columns or tuple(materialised[0].keys())
    for row in materialised:
        if set(row) != set(inferred):
            raise ValueError(
                "row %r does not match schema %r" % (row, inferred))
    if not bounded and time_column is None:
        raise ValueError("streaming relations need a time_column")
    if time_column is not None and time_column not in inferred:
        raise ValueError("time_column %r not in schema" % time_column)
    stream = env.from_collection(materialised, name=name)
    scan = Scan(tuple(inferred), bounded, name)
    return Table(env, stream, [scan], time_column, watermark_delay)


def _assigner_for(window: WindowDef):
    if isinstance(window, Tumble):
        return TumblingEventTimeWindows.of(window.size)
    if isinstance(window, Slide):
        return SlidingEventTimeWindows.of(window.size, window.slide)
    if isinstance(window, Session):
        return EventTimeSessionWindows.with_gap(window.gap)
    raise ValueError("unknown window definition %r" % window)


class Table:
    """An immutable logical-plan builder over dict rows."""

    def __init__(self, env, source_stream, ops: List[LogicalOp],
                 time_column: Optional[str],
                 watermark_delay: int) -> None:
        self.env = env
        self._source_stream = source_stream
        self._ops = ops
        self._time_column = time_column
        self._watermark_delay = watermark_delay

    # -- plan building --------------------------------------------------------

    @property
    def columns(self) -> Tuple[str, ...]:
        return schema_after(self._ops)

    @property
    def is_bounded(self) -> bool:
        return self._ops[0].bounded

    def _derive(self, op: LogicalOp) -> "Table":
        return Table(self.env, self._source_stream, self._ops + [op],
                     self._time_column, self._watermark_delay)

    def where(self, predicate: Callable[[Row], bool],
              reads: Tuple[str, ...],
              description: str = "<predicate>") -> "Table":
        """Filter rows; ``reads`` declares the referenced columns (used
        by the pushdown rule)."""
        unknown = set(reads) - set(self.columns)
        if unknown:
            raise ValueError("predicate reads unknown columns %r"
                             % sorted(unknown))
        return self._derive(Where(predicate, reads, description))

    def select(self, *keep: str, **derived) -> "Table":
        """Project to ``keep`` columns plus derived columns.

        Derived columns are given as ``name=(fn, reads)`` where ``fn``
        maps a row to the value and ``reads`` lists its input columns.
        """
        unknown = set(keep) - set(self.columns)
        if unknown:
            raise ValueError("select of unknown columns %r"
                             % sorted(unknown))
        derived_fns: Dict[str, Callable[[Row], Any]] = {}
        derived_reads: Dict[str, Tuple[str, ...]] = {}
        for name, spec in derived.items():
            fn, reads = spec
            missing = set(reads) - set(self.columns)
            if missing:
                raise ValueError("derived column %r reads unknown "
                                 "columns %r" % (name, sorted(missing)))
            derived_fns[name] = fn
            derived_reads[name] = tuple(reads)
        return self._derive(Select(tuple(keep), derived_fns, derived_reads))

    def group_by(self, *keys: str) -> "GroupedTable":
        return GroupedTable(self, keys, window=None)

    def join(self, other: "Table", on: Tuple[str, ...]) -> "Table":
        """Bounded equi-join on shared column names; the result carries
        the left columns plus the right's non-overlapping columns."""
        if not self.is_bounded or not other.is_bounded:
            raise ValueError("table joins require bounded relations; "
                             "use window_join on streams")
        on = tuple(on)
        for column in on:
            if column not in self.columns:
                raise ValueError("join key %r missing on the left" % column)
            if column not in other.columns:
                raise ValueError("join key %r missing on the right" % column)
        overlap = (set(self.columns) & set(other.columns)) - set(on)
        if overlap:
            raise ValueError(
                "ambiguous non-key columns %r; select/rename first"
                % sorted(overlap))
        # Thread the read columns (the join keys) through the plan the
        # same way Where does -- the arrangement rewrite and projection
        # pruning both consume this metadata.
        return self._derive(_JoinOp(on, other.columns, other, reads=on))

    def window(self, window: WindowDef) -> "WindowedTable":
        # Bounded relations may window too (batch = finite stream).
        if window.time_column not in self.columns:
            raise ValueError("window time column %r not in schema"
                             % window.time_column)
        return WindowedTable(self, window)

    # -- execution --------------------------------------------------------------

    def logical_plan(self) -> List[LogicalOp]:
        return list(self._ops)

    def optimized_plan(self, enable: bool = True,
                       share_arrangements: bool = False) -> List[LogicalOp]:
        if not enable:
            return list(self._ops)
        return optimize(self._ops, share_arrangements=share_arrangements)

    def explain(self, optimized: bool = True) -> str:
        return explain(self.optimized_plan(optimized))

    def to_stream(self, optimized: bool = True):
        """Compile the (optimized) plan onto dataflow operators."""
        share = optimized and self.env.config.share_arrangements
        ops = self.optimized_plan(optimized, share_arrangements=share)
        stream = self._source_stream
        if any(isinstance(op, WindowAgg) for op in ops):
            if self._time_column is None:
                raise ValueError("windowed plans need a time_column")
            stream = self._with_event_time(stream)
        head = ops[0]
        if isinstance(head, ArrangementScan):
            # Rewritten group-by head: the whole prefix is served by the
            # shared arrangement; the stream starts at its scan.
            stream = self.env.arrangement_catalog().compile_group_scan(
                self, head)
        for op in ops[1:]:
            stream = self._compile_op(stream, op)
        return stream

    def collect(self, optimized: bool = True):
        return self.to_stream(optimized).collect()

    # -- compilation ---------------------------------------------------------------

    def _with_event_time(self, stream):
        """Stamp rows with their ``time_column`` and emit watermarks
        ``watermark_delay`` behind the largest one seen."""
        time_column = self._time_column
        return stream.assign_timestamps_and_watermarks(
            WatermarkStrategy.for_bounded_out_of_orderness(
                lambda row: row[time_column], self._watermark_delay))

    def _compile_op(self, stream, op: LogicalOp):
        if isinstance(op, Where):
            return stream.filter(op.predicate,
                                 name="where[%s]" % op.description)
        if isinstance(op, Select):
            keep, derived = op.keep, op.derived

            def project(row, _keep=keep, _derived=derived):
                out = {column: row[column] for column in _keep}
                for name, fn in _derived.items():
                    out[name] = fn(row)
                return out
            return stream.map(project, name="select")
        if isinstance(op, GroupAgg):
            return self._compile_group_agg(stream, op)
        if isinstance(op, WindowAgg):
            return self._compile_window_agg(stream, op)
        if isinstance(op, _JoinOp):
            return self._compile_join(stream, op)
        if isinstance(op, ArrangementScan) and op.kind == "join":
            return self.env.arrangement_catalog().compile_join(
                self, stream, op)
        raise ValueError("cannot compile %r" % op)

    def _compile_join(self, stream, op):
        right_stream = op.right_table.to_stream()
        joined = DataSet(self.env, stream.node).join(
            DataSet(self.env, right_stream.node),
            left_key=_key_selector(op.on), right_key=_key_selector(op.on),
            join_fn=_merge_on(op.on), name="table-join")
        return joined.as_stream()

    def _compile_group_agg(self, stream, op: GroupAgg):
        grouped = DataSet(self.env, stream.node).group_by(
            _key_selector(op.keys))
        return grouped.reduce_group(
            _group_reducer(op.keys, op.aggregations),
            name="group-agg").as_stream()

    def _compile_window_agg(self, stream, op: WindowAgg):
        keys = op.keys
        aggregate = _RowAggregates(op.aggregations)
        assigner = _assigner_for(op.window)
        windowed = stream.key_by(_key_selector(keys)).window(
            assigner).aggregate(aggregate, name="window-agg")

        def to_row(result, _keys=keys):
            out = dict(zip(_keys, result.key))
            out["window_start"] = result.window.start
            out["window_end"] = result.window.end
            out.update(result.value)
            return out
        return windowed.map(to_row, name="window-agg-rows")


class GroupedTable:
    """``table.group_by(...)`` or ``table.window(...).group_by(...)``."""

    def __init__(self, table: Table, keys: Tuple[str, ...],
                 window: Optional[WindowDef]) -> None:
        unknown = set(keys) - set(table.columns)
        if unknown:
            raise ValueError("group_by on unknown columns %r"
                             % sorted(unknown))
        self.table = table
        self.keys = tuple(keys)
        self.window = window

    def agg(self, **aggregations) -> Table:
        """``agg(out_col=("sum", "in_col"), n=("count", None))``."""
        spec: AggSpec = {name: (fn, col)
                         for name, (fn, col) in aggregations.items()}
        validate_agg_spec(spec)
        for _, column in spec.values():
            if column is not None and column not in self.table.columns:
                raise ValueError("aggregation over unknown column %r"
                                 % column)
        if self.window is not None:
            return self.table._derive(
                WindowAgg(self.keys, self.window, spec))
        if not self.table.is_bounded:
            raise ValueError(
                "unbounded group_by needs a window; use "
                ".window(Tumble(...)).group_by(...)")
        return self.table._derive(GroupAgg(self.keys, spec))


class WindowedTable:
    def __init__(self, table: Table, window: WindowDef) -> None:
        self.table = table
        self.window = window

    def group_by(self, *keys: str) -> GroupedTable:
        return GroupedTable(self.table, keys, self.window)

    def agg(self, **aggregations) -> Table:
        """Window aggregation without grouping keys."""
        return GroupedTable(self.table, (), self.window).agg(**aggregations)
