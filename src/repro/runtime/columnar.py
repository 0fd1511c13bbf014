"""Columnar batch layout: schema inference, row conversion, wire codec.

The hot path of the multiprocess backend ships record batches between
workers.  Row batches pay a per-``Record`` price twice per hop: pickle
walks every object on the way out, and unpickling rebuilds every object
on the way in.  A :class:`~repro.runtime.elements.ColumnarBatch` instead
carries one typed column per field -- ``array('q')``/``array('d')`` for
int64/float64, offset-indexed UTF-8 for strings, a single pickled list
for opaque objects -- so a batch crosses the wire as a handful of raw
byte blocks (header + column offsets) and decodes into ``memoryview``
casts over one buffer, no per-record objects anywhere.

**Losslessness is the contract.**  Schema inference only admits a typed
column when every value is *exactly* that type (``type(v) is int`` --
``bool`` is a subclass of ``int`` and would silently round-trip as
``0``/``1``, so it is excluded; same for ``float``/``str``/``tuple``
subclasses).  Anything else falls back: tuple positions degrade to a
pickled object column, whole-value misfits make
:func:`batch_to_columnar` return ``None`` and the caller keeps the row
batch (on the wire: the legacy pickle frame, counted as a fallback).
``None`` timestamps ride as the :data:`TIMESTAMP_NONE` sentinel, which
lies outside the engine's ``MIN``/``MAX_TIMESTAMP`` range.

Every batch infers its own schema (checking each value's exact type,
which is all a cached schema would save), so heterogeneous phases of a
stream stay correct.
"""

from __future__ import annotations

import pickle
import struct
from array import array
from typing import Any, List, Optional, Sequence, Tuple

from repro.runtime.elements import (
    TIMESTAMP_NONE,
    ColumnarBatch,
    Record,
)

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Column kind codes (wire stable; 0 is "absent").
KIND_NONE = 0
KIND_I64 = 1
KIND_F64 = 2
KIND_STR = 3
KIND_OBJ = 4

_KIND_NAMES = {KIND_NONE: "none", KIND_I64: "i64", KIND_F64: "f64",
               KIND_STR: "str", KIND_OBJ: "obj"}

_HEADER = struct.Struct("<IBBBB")
_U32 = struct.Struct("<I")
_I64_RANGE = (-(2**63), 2**63 - 1)


class ColumnarCodecError(ValueError):
    """A columnar wire frame could not be decoded (truncated or
    inconsistent block structure)."""


class ColumnSchema:
    """The typed layout of one :class:`ColumnarBatch`.

    ``arity == 0`` means scalar values carried in ``value_kinds[0]``;
    ``arity >= 1`` means every value is a tuple of that length with one
    column (and one kind) per position.
    """

    __slots__ = ("ts_kind", "key_kind", "arity", "value_kinds")

    def __init__(self, ts_kind: int, key_kind: int, arity: int,
                 value_kinds: Tuple[int, ...]) -> None:
        self.ts_kind = ts_kind
        self.key_kind = key_kind
        self.arity = arity
        self.value_kinds = value_kinds

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ColumnSchema)
                and self.ts_kind == other.ts_kind
                and self.key_kind == other.key_kind
                and self.arity == other.arity
                and self.value_kinds == other.value_kinds)

    def __hash__(self) -> int:
        return hash((self.ts_kind, self.key_kind, self.arity,
                     self.value_kinds))

    def __repr__(self) -> str:
        values = "x".join(_KIND_NAMES[k] for k in self.value_kinds)
        if self.arity:
            values = "tuple%d(%s)" % (self.arity, values)
        return ("ColumnSchema(ts=%s, key=%s, value=%s)"
                % (_KIND_NAMES[self.ts_kind], _KIND_NAMES[self.key_kind],
                   values))


# -- schema inference and row -> column conversion ---------------------------


def _scalar_kind(values: Sequence[Any]) -> int:
    """The exact-type column kind of a value sequence, or KIND_OBJ."""
    first = values[0]
    if type(first) is int:
        lo, hi = _I64_RANGE
        for v in values:
            if type(v) is not int or not (lo <= v <= hi):
                return KIND_OBJ
        return KIND_I64
    if type(first) is float:
        for v in values:
            if type(v) is not float:
                return KIND_OBJ
        return KIND_F64
    if type(first) is str:
        for v in values:
            if type(v) is not str:
                return KIND_OBJ
        return KIND_STR
    return KIND_OBJ


def _build_column(kind: int, values: List[Any]) -> Any:
    if kind == KIND_I64:
        return array("q", values)
    if kind == KIND_F64:
        return array("d", values)
    return values  # str/obj columns stay plain lists in memory


def batch_to_columnar(records: Sequence[Record]
                      ) -> Optional[ColumnarBatch]:
    """Convert a row batch to columnar layout, or ``None`` when the
    records do not admit a (worthwhile) columnar schema: the schema is
    inferred from this batch alone, by :func:`columnar_from_lists`."""
    return columnar_from_lists([r.value for r in records],
                               [r.timestamp for r in records],
                               [r.key for r in records])


def columnar_from_lists(values: List[Any], timestamps: List[Any],
                        keys: List[Any]) -> Optional[ColumnarBatch]:
    """Build a columnar batch straight from a column kernel's output
    lists -- the no-``Record``-was-ever-created emission path for tasks
    whose whole chain is fused into a kernel.

    Exact types only, scalar-object values refused; ``None`` means
    keep the rows (the caller then materialises records as before).
    """
    n = len(values)
    if not n:
        return None
    lo, hi = _I64_RANGE
    ts_column: Optional[array] = None
    ts_kind = KIND_NONE
    any_present = False
    column = array("q")
    for ts in timestamps:
        if ts is None:
            column.append(TIMESTAMP_NONE)
        elif type(ts) is int and lo < ts <= hi:
            any_present = True
            column.append(ts)
        else:
            return None
    if any_present:
        ts_kind, ts_column = KIND_I64, column
    if all(k is None for k in keys):
        key_kind: int = KIND_NONE
        key_column: Any = None
    else:
        key_kind = _scalar_kind(keys)
        key_column = _build_column(key_kind, list(keys))
    first = values[0]
    if type(first) is tuple:
        arity = len(first)
        if arity == 0 or arity > 255:
            return None
        for v in values:
            if type(v) is not tuple or len(v) != arity:
                return None
        columns = []
        kinds = []
        for position in range(arity):
            column_values_ = [v[position] for v in values]
            kind = _scalar_kind(column_values_)
            kinds.append(kind)
            columns.append(_build_column(kind, column_values_))
        schema = ColumnSchema(ts_kind, key_kind, arity, tuple(kinds))
        return ColumnarBatch(schema, n, ts_column, key_column,
                             tuple(columns))
    kind = _scalar_kind(values)
    if kind == KIND_OBJ:
        # A whole-value object column is just a pickle with extra steps:
        # the row batch (and the pipe fallback) is strictly better.
        return None
    schema = ColumnSchema(ts_kind, key_kind, 0, (kind,))
    return ColumnarBatch(schema, n, ts_column, key_column,
                         (_build_column(kind, list(values)),))


# -- column -> row materialisation ------------------------------------------


def _column_list(column: Any) -> List[Any]:
    if column is None:
        return []
    tolist = getattr(column, "tolist", None)
    if tolist is not None:
        return tolist()
    return list(column)


def column_timestamps(batch: ColumnarBatch) -> List[Optional[int]]:
    if batch.timestamps is None:
        return [None] * batch.length
    return [None if ts == TIMESTAMP_NONE else ts
            for ts in _column_list(batch.timestamps)]


def column_keys(batch: ColumnarBatch) -> List[Any]:
    if batch.keys is None:
        return [None] * batch.length
    return _column_list(batch.keys)


def column_values(batch: ColumnarBatch) -> List[Any]:
    if batch.schema.arity:
        return list(zip(*[_column_list(column) for column in batch.columns]))
    return _column_list(batch.columns[0])


def materialize_records(batch: ColumnarBatch) -> List[Record]:
    """The lossless row view of a columnar batch (cached by the
    element's ``records`` property)."""
    make = Record
    return [make(v, ts, k)
            for v, ts, k in zip(column_values(batch),
                                column_timestamps(batch),
                                column_keys(batch))]


def slice_batch(batch: ColumnarBatch, start: int, stop: int) -> ColumnarBatch:
    ts = batch.timestamps[start:stop] if batch.timestamps is not None else None
    keys = batch.keys[start:stop] if batch.keys is not None else None
    columns = tuple(column[start:stop] for column in batch.columns)
    return ColumnarBatch(batch.schema, max(0, min(stop, batch.length) - start),
                         ts, keys, columns)


# -- the wire codec ----------------------------------------------------------
#
# Frame layout (little-endian):
#
#   u32 n_records | u8 ts_kind | u8 key_kind | u8 arity | u8 n_value_cols
#   u8 * n_value_cols            -- value column kinds
#   block*                       -- ts block (if ts_kind != none),
#                                   key block (if key_kind != none),
#                                   one block per value column,
#                                   the marks block (always)
#
# Every block is  u32 byte_length | payload .  i64/f64 payloads are the
# raw array bytes (n * 8); str payloads are u32 offsets[n + 1] followed
# by the concatenated UTF-8 bytes; obj payloads are one pickled list.
# The marks block is i64 (offset, timestamp) pairs: the watermarks that
# ride in the batch (empty for none).


def _encode_block(kind: int, column: Any, n: int, parts: List[bytes]) -> None:
    if kind in (KIND_I64, KIND_F64):
        if isinstance(column, memoryview):
            payload = bytes(column.cast("B"))
        else:
            payload = column.tobytes()
    elif kind == KIND_STR:
        encoded = [s.encode("utf-8") for s in column]
        offsets = array("I")
        total = 0
        offsets.append(0)
        for blob in encoded:
            total += len(blob)
            offsets.append(total)
        payload = offsets.tobytes() + b"".join(encoded)
    else:  # KIND_OBJ
        payload = pickle.dumps(list(column), _PICKLE_PROTOCOL)
    parts.append(_U32.pack(len(payload)))
    parts.append(payload)


def encode_columnar(batch: ColumnarBatch) -> bytes:
    """One contiguous wire frame: header + column offsets + raw column
    bytes.  The inverse of :func:`decode_columnar`."""
    schema = batch.schema
    n = batch.length
    kinds = schema.value_kinds
    parts: List[bytes] = [
        _HEADER.pack(n, schema.ts_kind, schema.key_kind, schema.arity,
                     len(kinds)),
        bytes(kinds),
    ]
    if schema.ts_kind != KIND_NONE:
        _encode_block(KIND_I64, batch.timestamps, n, parts)
    if schema.key_kind != KIND_NONE:
        _encode_block(schema.key_kind, batch.keys, n, parts)
    for kind, column in zip(kinds, batch.columns):
        _encode_block(kind, column, n, parts)
    marks = array("q", [number for mark in batch.marks for number in mark])
    _encode_block(KIND_I64, marks, len(marks) // 2, parts)
    return b"".join(parts)


def _decode_block(kind: int, view: memoryview, offset: int, n: int
                  ) -> Tuple[Any, int]:
    if offset + _U32.size > len(view):
        raise ColumnarCodecError("truncated columnar block header")
    (length,) = _U32.unpack_from(view, offset)
    offset += _U32.size
    end = offset + length
    if end > len(view):
        raise ColumnarCodecError("truncated columnar block payload")
    payload = view[offset:end]
    if kind in (KIND_I64, KIND_F64):
        if length != n * 8:
            raise ColumnarCodecError(
                "numeric block is %d bytes for %d rows" % (length, n))
        return payload.cast("q" if kind == KIND_I64 else "d"), end
    if kind == KIND_STR:
        offsets_bytes = 4 * (n + 1)
        if length < offsets_bytes:
            raise ColumnarCodecError("string block shorter than its offsets")
        offsets = payload[:offsets_bytes].cast("I")
        data = bytes(payload[offsets_bytes:])
        if offsets[n] != len(data):
            raise ColumnarCodecError("string offsets do not cover the data")
        column = [data[offsets[i]:offsets[i + 1]].decode("utf-8")
                  for i in range(n)]
        return column, end
    try:
        column = pickle.loads(bytes(payload))
    except Exception as exc:
        raise ColumnarCodecError("object column does not unpickle: %r"
                                 % (exc,))
    if not isinstance(column, list) or len(column) != n:
        raise ColumnarCodecError("object column is not a %d-item list" % n)
    return column, end


def decode_columnar(buf: bytes) -> ColumnarBatch:
    """Decode one wire frame.  Numeric columns come back as typed
    ``memoryview`` casts over ``buf`` -- zero further copies -- so the
    caller must hand in an immutable snapshot (``bytes``), not a live
    ring slot."""
    view = memoryview(buf)
    if len(view) < _HEADER.size:
        raise ColumnarCodecError("truncated columnar header")
    n, ts_kind, key_kind, arity, n_cols = _HEADER.unpack_from(view, 0)
    offset = _HEADER.size
    if offset + n_cols > len(view):
        raise ColumnarCodecError("truncated value-kind table")
    kinds = tuple(view[offset:offset + n_cols].tolist())
    offset += n_cols
    expected_cols = arity if arity else 1
    if n_cols != expected_cols or not all(
            k in (KIND_I64, KIND_F64, KIND_STR, KIND_OBJ) for k in kinds):
        raise ColumnarCodecError("inconsistent columnar schema header")
    timestamps = None
    if ts_kind == KIND_I64:
        timestamps, offset = _decode_block(KIND_I64, view, offset, n)
    elif ts_kind != KIND_NONE:
        raise ColumnarCodecError("unknown timestamp kind %d" % ts_kind)
    keys = None
    if key_kind != KIND_NONE:
        keys, offset = _decode_block(key_kind, view, offset, n)
    columns = []
    for kind in kinds:
        column, offset = _decode_block(kind, view, offset, n)
        columns.append(column)
    schema = ColumnSchema(ts_kind, key_kind, arity, kinds)
    return ColumnarBatch(schema, n, timestamps, keys, tuple(columns),
                         _decode_marks(view, offset, n))


def _decode_marks(view: memoryview, offset: int, n: int) -> List[Any]:
    """The frame's trailing marks block as ``(offset, timestamp)``
    pairs, checked to be in order and inside the batch."""
    if offset + _U32.size > len(view):
        raise ColumnarCodecError("truncated marks block header")
    (length,) = _U32.unpack_from(view, offset)
    if length % 16:
        raise ColumnarCodecError("marks block is %d bytes" % length)
    numbers, _ = _decode_block(KIND_I64, view, offset, length // 8)
    marks = list(zip(numbers[::2], numbers[1::2]))
    if any(not 0 <= at <= n for at, _ in marks) or any(
            a[0] > b[0] for a, b in zip(marks, marks[1:])):
        raise ColumnarCodecError("marks out of order or outside the batch")
    return marks
