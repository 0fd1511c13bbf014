"""Logical plans for the Table layer.

A :class:`~repro.table.table.Table` accumulates a linear list of logical
operations over dict-shaped rows:

* ``Scan``      -- the source relation and its columns,
* ``Where``     -- row predicate, annotated with the columns it reads,
* ``Select``    -- projection / derivation, annotated with inputs/outputs,
* ``GroupAgg``  -- grouped aggregation (bounded relations),
* ``WindowAgg`` -- windowed grouped aggregation (streaming relations).

The optimizer (:mod:`repro.table.optimizer`) rewrites this list before it
is compiled onto DataStream/DataSet operators -- the "automatically
optimized" part of STREAMLINE's uniform programming model, scaled to the
classic relational rules: predicate pushdown, filter fusion and
projection pruning.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

Row = Dict[str, Any]


class LogicalOp:
    """Base class; ``columns_out`` is the schema after this op."""

    def columns_out(self, columns_in: Tuple[str, ...]) -> Tuple[str, ...]:
        return columns_in


class Scan(LogicalOp):
    """The source relation."""

    def __init__(self, columns: Tuple[str, ...], bounded: bool,
                 name: str = "scan") -> None:
        self.columns = tuple(columns)
        self.bounded = bounded
        self.name = name

    def columns_out(self, columns_in: Tuple[str, ...]) -> Tuple[str, ...]:
        return self.columns

    def __repr__(self) -> str:
        return "Scan(%s%s)" % (",".join(self.columns),
                               "" if self.bounded else ", streaming")


class Where(LogicalOp):
    """Row filter.  ``reads`` declares the columns the predicate touches;
    it is what makes pushdown decidable without inspecting code."""

    def __init__(self, predicate: Callable[[Row], bool],
                 reads: Tuple[str, ...],
                 description: str = "<predicate>") -> None:
        self.predicate = predicate
        self.reads = frozenset(reads)
        self.description = description

    def __repr__(self) -> str:
        return "Where(%s)" % self.description


class Select(LogicalOp):
    """Projection: keep ``keep`` columns verbatim and add ``derived``
    columns computed as ``fn(row)``; ``derived_reads`` declares inputs."""

    def __init__(self, keep: Tuple[str, ...],
                 derived: "Dict[str, Callable[[Row], Any]]",
                 derived_reads: "Dict[str, Tuple[str, ...]]") -> None:
        self.keep = tuple(keep)
        self.derived = dict(derived)
        self.derived_reads = {name: frozenset(reads)
                              for name, reads in derived_reads.items()}

    def columns_out(self, columns_in: Tuple[str, ...]) -> Tuple[str, ...]:
        return self.keep + tuple(self.derived)

    @property
    def reads(self) -> FrozenSet[str]:
        required = set(self.keep)
        for reads in self.derived_reads.values():
            required |= reads
        return frozenset(required)

    def __repr__(self) -> str:
        parts = list(self.keep) + ["%s=<expr>" % n for n in self.derived]
        return "Select(%s)" % ", ".join(parts)


#: aggregation spec: output column -> (function name, input column or None)
AggSpec = Dict[str, Tuple[str, Optional[str]]]

SUPPORTED_AGGS = ("sum", "count", "avg", "min", "max")


def validate_agg_spec(aggregations: AggSpec) -> None:
    if not aggregations:
        raise ValueError("at least one aggregation is required")
    for output, (fn_name, column) in aggregations.items():
        if fn_name not in SUPPORTED_AGGS:
            raise ValueError("unsupported aggregation %r (supported: %s)"
                             % (fn_name, ", ".join(SUPPORTED_AGGS)))
        if fn_name != "count" and column is None:
            raise ValueError("%r aggregation needs an input column"
                             % fn_name)


def _agg_inputs(aggregations: AggSpec) -> FrozenSet[str]:
    """The input columns an aggregation spec reads."""
    return frozenset(column for _, column in aggregations.values()
                     if column is not None)


class GroupAgg(LogicalOp):
    """Grouped aggregation over a bounded relation."""

    def __init__(self, keys: Tuple[str, ...],
                 aggregations: AggSpec) -> None:
        if not keys:
            raise ValueError("group_by needs at least one key column")
        validate_agg_spec(aggregations)
        self.keys = tuple(keys)
        self.aggregations = dict(aggregations)

    def columns_out(self, columns_in: Tuple[str, ...]) -> Tuple[str, ...]:
        return self.keys + tuple(self.aggregations)

    @property
    def reads(self) -> FrozenSet[str]:
        return _agg_inputs(self.aggregations) | set(self.keys)

    def __repr__(self) -> str:
        return "GroupAgg(by=%s)" % ",".join(self.keys)


class WindowAgg(LogicalOp):
    """Windowed grouped aggregation over a streaming relation."""

    def __init__(self, keys: Tuple[str, ...], window: "WindowDef",
                 aggregations: AggSpec) -> None:
        validate_agg_spec(aggregations)
        self.keys = tuple(keys)
        self.window = window
        self.aggregations = dict(aggregations)

    def columns_out(self, columns_in: Tuple[str, ...]) -> Tuple[str, ...]:
        return (self.keys + ("window_start", "window_end")
                + tuple(self.aggregations))

    @property
    def reads(self) -> FrozenSet[str]:
        return (_agg_inputs(self.aggregations) | set(self.keys)
                | {self.window.time_column})

    def __repr__(self) -> str:
        return "WindowAgg(by=%s, %r)" % (",".join(self.keys), self.window)


class Join(LogicalOp):
    """Bounded equi-join with another relation.

    ``right_plan`` is the other table's (already optimized) logical plan
    paired with its source stream at compile time; the op itself only
    records schema-level facts so the optimizer can reason locally.
    """

    def __init__(self, on: Tuple[str, ...],
                 right_columns: Tuple[str, ...],
                 right_table: Any,
                 reads: Optional[Tuple[str, ...]] = None) -> None:
        if not on:
            raise ValueError("join needs at least one key column")
        self.on = tuple(on)
        self.right_columns = tuple(right_columns)
        self.right_table = right_table
        # Explicit column metadata, threaded through the plan the same
        # way Where.reads is: what the join reads from its *left* input.
        # The arrangement rewrite needs this to fingerprint join inputs.
        self.reads = frozenset(reads if reads is not None else on)

    def columns_out(self, columns_in: Tuple[str, ...]) -> Tuple[str, ...]:
        extra = tuple(column for column in self.right_columns
                      if column not in columns_in)
        return columns_in + extra

    def __repr__(self) -> str:
        return "Join(on=%s)" % ",".join(self.on)


class ArrangementScan(LogicalOp):
    """Read from a shared arrangement instead of building fresh state.

    Placed by the optimizer's sharing rewrite
    (:func:`repro.table.optimizer.rewrite_shared_arrangements`):

    * ``kind == "group"`` replaces ``Scan .. GroupAgg`` at the head of a
      plan: the arrangement holds the (filtered/projected) input rows
      keyed by the group keys; the compiled operator folds each key's
      rows with the query's own aggregations.
    * ``kind == "join"`` replaces a ``Join`` mid-plan: the arrangement
      holds the *right* table's rows keyed by the join columns; the
      compiled operator probes it with the left stream.

    ``prefix`` is the arranged input's logical plan (Scan/Where/Select
    only); its :func:`plan_fingerprint` plus the key columns identify
    which arrangement to share.
    """

    def __init__(self, kind: str, keys: Tuple[str, ...],
                 prefix: List["LogicalOp"],
                 aggregations: Optional[AggSpec] = None,
                 right_table: Any = None,
                 right_columns: Tuple[str, ...] = ()) -> None:
        if kind not in ("group", "join"):
            raise ValueError("kind must be 'group' or 'join'")
        self.kind = kind
        self.keys = tuple(keys)
        self.prefix = list(prefix)
        self.aggregations = dict(aggregations) if aggregations else None
        self.right_table = right_table
        self.right_columns = tuple(right_columns)
        self.fingerprint = plan_fingerprint(self.prefix)

    def columns_out(self, columns_in: Tuple[str, ...]) -> Tuple[str, ...]:
        if self.kind == "group":
            return self.keys + tuple(self.aggregations or ())
        extra = tuple(column for column in self.right_columns
                      if column not in columns_in)
        return columns_in + extra

    @property
    def reads(self) -> FrozenSet[str]:
        return frozenset(self.keys)

    def __repr__(self) -> str:
        return "ArrangementScan(%s on=%s, prefix=%s)" % (
            self.kind, ",".join(self.keys), self.fingerprint[:8])


def _code_token(fn: Callable[..., Any]) -> str:
    """A process-local equality token for a callable: two callables with
    the same bytecode, constants, names, defaults and closure values get
    the same token, so structurally identical predicates written in two
    places still share an arrangement.  Falls back to object identity
    when there is no inspectable code object (builtins, partials) --
    conservative non-sharing is always correct."""
    code = getattr(fn, "__code__", None)
    if code is None:
        return "obj:%d" % id(fn)
    digest = hashlib.sha1(code.co_code)
    digest.update(repr(code.co_consts).encode())
    digest.update(repr(code.co_names).encode())
    digest.update(repr(getattr(fn, "__defaults__", None)).encode())
    closure = getattr(fn, "__closure__", None)
    if closure:
        for cell in closure:
            try:
                digest.update(repr(cell.cell_contents)[:128].encode())
            except ValueError:  # empty cell
                digest.update(b"<empty>")
    return digest.hexdigest()


def plan_fingerprint(ops: List[LogicalOp]) -> str:
    """Fingerprint of a stateless plan prefix (Scan/Where/Select).  Two
    queries whose arranged input has the same fingerprint -- same source
    relation, same filters, same projections -- can share one maintained
    index.  Unknown op kinds hash by identity: never falsely shared."""
    digest = hashlib.sha1()
    for op in ops:
        if isinstance(op, Scan):
            token = "scan:%s:%s:%s" % (",".join(op.columns), op.bounded,
                                       op.name)
        elif isinstance(op, Where):
            token = "where:%s" % _code_token(op.predicate)
        elif isinstance(op, Select):
            derived = ",".join("%s=%s" % (name, _code_token(fn))
                               for name, fn in sorted(op.derived.items()))
            token = "select:%s:%s" % (",".join(op.keep), derived)
        else:
            token = "op:%d" % id(op)
        digest.update(token.encode())
        digest.update(b"|")
    return digest.hexdigest()


class WindowDef:
    """Declarative window over an event-time column."""

    kind = "abstract"

    def __init__(self, time_column: str) -> None:
        self.time_column = time_column


class Tumble(WindowDef):
    kind = "tumble"

    def __init__(self, time_column: str, size: int) -> None:
        super().__init__(time_column)
        if size <= 0:
            raise ValueError("size must be positive")
        self.size = size

    def __repr__(self) -> str:
        return "Tumble(%s, %d)" % (self.time_column, self.size)


class Slide(WindowDef):
    kind = "slide"

    def __init__(self, time_column: str, size: int, slide: int) -> None:
        super().__init__(time_column)
        if size <= 0 or slide <= 0 or slide > size:
            raise ValueError("need 0 < slide <= size")
        self.size = size
        self.slide = slide

    def __repr__(self) -> str:
        return "Slide(%s, %d, %d)" % (self.time_column, self.size,
                                      self.slide)


class Session(WindowDef):
    kind = "session"

    def __init__(self, time_column: str, gap: int) -> None:
        super().__init__(time_column)
        if gap <= 0:
            raise ValueError("gap must be positive")
        self.gap = gap

    def __repr__(self) -> str:
        return "Session(%s, gap=%d)" % (self.time_column, self.gap)


def schema_after(ops: List[LogicalOp]) -> Tuple[str, ...]:
    columns: Tuple[str, ...] = ()
    for op in ops:
        columns = op.columns_out(columns)
    return columns


def explain(ops: List[LogicalOp]) -> str:
    lines = ["== Table plan =="]
    columns: Tuple[str, ...] = ()
    for op in ops:
        columns = op.columns_out(columns)
        lines.append("  %r -> [%s]" % (op, ", ".join(columns)))
    return "\n".join(lines)
