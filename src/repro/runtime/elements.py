"""Stream elements: the unified vocabulary flowing through every channel.

Following the Flink execution model that STREAMLINE builds on, a channel
carries an interleaved sequence of four element kinds:

* :class:`Record` -- a data tuple with an optional event timestamp,
* :class:`Watermark` -- an assertion that no record with a smaller event
  timestamp will arrive on this channel,
* :class:`CheckpointBarrier` -- separates the records belonging to
  consecutive checkpoints (asynchronous barrier snapshotting),
* :class:`EndOfStream` -- the channel is exhausted; this is how *data at
  rest* (bounded inputs) and *data in motion* (unbounded inputs) unify:
  a batch job is a stream whose sources eventually emit ``EndOfStream``.

In batched execution records travel as a :class:`RecordBatch` (or its
columnar twin), and the watermarks emitted among them ride inside it at
their positions, as Flink's network buffers carry them inline; only a
barrier or end of stream cuts a batch.

Timestamps are integers in milliseconds, mirroring Flink.  ``MAX_TIMESTAMP``
acts as the +infinity watermark that flushes all event-time state at the
end of a bounded input.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple

MIN_TIMESTAMP = -(2**62)
MAX_TIMESTAMP = 2**62

#: A watermark inside a batch: ``(offset, timestamp)``, the watermark
#: following the batch's first ``offset`` records.
Mark = Tuple[int, int]


class StreamElement:
    """Base class for everything that travels through a channel."""

    __slots__ = ()

    @property
    def is_record(self) -> bool:
        return False

    @property
    def is_batch(self) -> bool:
        return False

    @property
    def is_columnar(self) -> bool:
        return False

    @property
    def is_watermark(self) -> bool:
        return False

    @property
    def is_barrier(self) -> bool:
        return False

    @property
    def is_end(self) -> bool:
        return False


class Record(StreamElement):
    """A data element, optionally stamped with an event timestamp.

    ``key`` is a routing artefact: it is filled in by keyed partitioning
    so downstream operators can scope state without re-invoking the key
    selector.
    """

    __slots__ = ("value", "timestamp", "key")

    def __init__(self, value: Any, timestamp: Optional[int] = None,
                 key: Any = None) -> None:
        self.value = value
        self.timestamp = timestamp
        self.key = key

    @property
    def is_record(self) -> bool:
        return True

    def with_value(self, value: Any) -> "Record":
        """A copy carrying ``value`` but the same timestamp and key."""
        return Record(value, self.timestamp, self.key)

    def __repr__(self) -> str:
        return "Record(%r, ts=%r, key=%r)" % (self.value, self.timestamp, self.key)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Record)
                and self.value == other.value
                and self.timestamp == other.timestamp
                and self.key == other.key)

    def __hash__(self) -> int:
        return hash((self.value if not isinstance(self.value, (list, dict))
                     else id(self.value), self.timestamp))


class RecordBatch(StreamElement):
    """A run of consecutive :class:`Record`\\ s travelling as one element,
    with the watermarks emitted among them.

    Batches exist purely on the wire: a producer coalesces the records it
    emits between two flushes and the consumer unpacks them.  Only a
    checkpoint barrier or end of stream cuts a batch.  A watermark rides
    inside it as a *mark* ``(offset, timestamp)``: the watermark follows
    the batch's first ``offset`` records, exactly where the producer
    emitted it.  The consumer unpacks it (:func:`unpack`) into the records
    between two marks and the :class:`Watermark` each mark stands for, so
    every channel carries the element sequence of record-at-a-time
    execution and barrier alignment, watermark propagation and replay
    determinism stay bit-identical to it.

    For flow control a batch weighs ``len(records)`` plus one per mark
    against channel capacity -- what the records and watermarks it
    stands for weigh as elements of their own -- keeping backpressure
    the same in both modes.
    """

    __slots__ = ("records", "marks")

    def __init__(self, records: List["Record"],
                 marks: Sequence[Mark] = ()) -> None:
        self.records = records
        #: ``(offset, timestamp)`` watermarks in stream order; offsets
        #: never decrease and never exceed ``len(records)``.
        self.marks = marks

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        if self.marks:
            return "RecordBatch(n=%d, marks=%d)" % (len(self.records),
                                                    len(self.marks))
        return "RecordBatch(n=%d)" % len(self.records)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, (RecordBatch, ColumnarBatch))
                and self.records == other.records
                and list(self.marks) == list(other.marks))

    def __hash__(self) -> int:
        # Defining __eq__ alone silently sets __hash__ to None; batches
        # must stay hashable like every other stream element (tests and
        # diagnostics put elements in sets/dicts).  Consistent with
        # __eq__ via the records' own hashes.
        return _batch_hash(self)

    @property
    def is_batch(self) -> bool:
        return True

    def slice(self, start: int, stop: int) -> "RecordBatch":
        """The records ``[start:stop)`` as a batch without marks."""
        return RecordBatch(self.records[start:stop])


def segments(length: int, marks: Sequence[Mark]
             ) -> Iterator[Tuple[int, int, Optional[int]]]:
    """The runs of a marked batch of ``length`` records, in stream
    order: ``(start, stop, watermark)`` per mark -- records
    ``[start:stop)``, then the watermark -- and a last ``(start, length,
    None)``."""
    start = 0
    for stop, watermark in marks:
        yield start, stop, watermark
        start = stop
    yield start, length, None


def unpack(batch: "RecordBatch | ColumnarBatch") -> List[StreamElement]:
    """The elements a marked batch stands for, in order: each run of
    records between two marks as a batch without marks, each mark as
    the :class:`Watermark` it stands for."""
    elements: List[StreamElement] = []
    for start, stop, watermark in segments(len(batch), batch.marks):
        if stop > start:
            elements.append(batch.slice(start, stop))
        if watermark is not None:
            elements.append(Watermark(watermark))
    return elements


def _batch_hash(batch: "RecordBatch | ColumnarBatch") -> int:
    return hash(("batch", tuple(map(hash, batch.records)),
                 tuple(map(tuple, batch.marks))))


#: Sentinel for a ``None`` event timestamp inside an int64 timestamp
#: column; safely outside the engine's MIN/MAX_TIMESTAMP range.
TIMESTAMP_NONE = -(2**63)


class ColumnarBatch(StreamElement):
    """A :class:`RecordBatch` in columnar (struct-of-arrays) layout.

    Instead of a list of :class:`Record` objects, the batch carries one
    column per field: an int64 timestamp column (``TIMESTAMP_NONE``
    encodes a missing timestamp), a key column, and one or more typed
    value columns described by ``schema`` (see
    :mod:`repro.runtime.columnar` for inference and the wire codec).
    Columns are ``array``/``memoryview``/``list`` objects -- whatever
    the producer had zero-copy access to.

    The element is a drop-in batch for every row-oriented consumer: it
    reports ``is_batch``, weighs ``len(self)`` records against channel
    capacity, and its ``records`` property materialises (and caches) the
    equivalent ``Record`` list on first touch -- so operators without a
    column kernel transparently take the row path.  Conversion is
    lossless by construction: the schema inference in
    ``repro.runtime.columnar`` only admits exact-type columns (``bool``
    is not ``int``, ``None`` timestamps survive) and falls back to row
    batches otherwise.

    Like row batches, columnar batches carry their watermarks as
    ``marks`` at their positions and never straddle a barrier or end of
    stream, so barrier alignment and watermark semantics are untouched.
    """

    __slots__ = ("schema", "length", "timestamps", "keys", "columns",
                 "marks", "_records")

    def __init__(self, schema: Any, length: int, timestamps: Any,
                 keys: Any, columns: tuple,
                 marks: Sequence[Mark] = ()) -> None:
        self.schema = schema
        self.length = length
        #: int64 column (``TIMESTAMP_NONE`` = missing) or ``None`` when
        #: every timestamp is missing.
        self.timestamps = timestamps
        #: key column (typed sequence) or ``None`` when every key is.
        self.keys = keys
        #: one typed column per value field (a single column for scalar
        #: values; one per position for tuple values).
        self.columns = columns
        #: ``(offset, timestamp)`` watermarks, as in :class:`RecordBatch`.
        self.marks = marks
        self._records: Optional[List[Record]] = None

    def __len__(self) -> int:
        return self.length

    @property
    def is_batch(self) -> bool:
        return True

    @property
    def is_columnar(self) -> bool:
        return True

    @property
    def records(self) -> List["Record"]:
        """The equivalent row batch, materialised lazily and cached --
        the compatibility bridge for row-path consumers."""
        if self._records is None:
            from repro.runtime.columnar import materialize_records
            self._records = materialize_records(self)
        return self._records

    def value_list(self) -> List[Any]:
        """The value column(s) as one plain Python list (tuples re-zipped
        for multi-column schemas) -- the input of column kernels."""
        from repro.runtime.columnar import column_values
        return column_values(self)

    def timestamp_list(self) -> List[Optional[int]]:
        from repro.runtime.columnar import column_timestamps
        return column_timestamps(self)

    def key_list(self) -> List[Any]:
        from repro.runtime.columnar import column_keys
        return column_keys(self)

    def slice(self, start: int, stop: int) -> "ColumnarBatch":
        """A columnar sub-batch of rows ``[start:stop)``, without marks
        (columns slice without materialising rows)."""
        from repro.runtime.columnar import slice_batch
        return slice_batch(self, start, stop)

    def __repr__(self) -> str:
        return "ColumnarBatch(n=%d, schema=%r)" % (self.length, self.schema)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (RecordBatch, ColumnarBatch)):
            return (self.records == other.records
                    and list(self.marks) == list(other.marks))
        return NotImplemented

    def __hash__(self) -> int:
        return _batch_hash(self)


class Watermark(StreamElement):
    """Progress marker: no later record on this channel has ``timestamp``
    smaller than this watermark's."""

    __slots__ = ("timestamp",)

    def __init__(self, timestamp: int) -> None:
        self.timestamp = timestamp

    @property
    def is_watermark(self) -> bool:
        return True

    def __repr__(self) -> str:
        if self.timestamp >= MAX_TIMESTAMP:
            return "Watermark(MAX)"
        return "Watermark(%d)" % self.timestamp

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Watermark) and self.timestamp == other.timestamp

    def __hash__(self) -> int:
        return hash(("wm", self.timestamp))


class CheckpointBarrier(StreamElement):
    """Separates pre- and post-checkpoint records (Chandy-Lamport style)."""

    __slots__ = ("checkpoint_id",)

    def __init__(self, checkpoint_id: int) -> None:
        self.checkpoint_id = checkpoint_id

    @property
    def is_barrier(self) -> bool:
        return True

    def __repr__(self) -> str:
        return "CheckpointBarrier(%d)" % self.checkpoint_id

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CheckpointBarrier)
                and self.checkpoint_id == other.checkpoint_id)

    def __hash__(self) -> int:
        return hash(("barrier", self.checkpoint_id))


class EndOfStream(StreamElement):
    """The bounded-input sentinel; unifies batch with streaming."""

    __slots__ = ()

    @property
    def is_end(self) -> bool:
        return True

    def __repr__(self) -> str:
        return "EndOfStream()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EndOfStream)

    def __hash__(self) -> int:
        return hash("eos")


END_OF_STREAM = EndOfStream()
MAX_WATERMARK = Watermark(MAX_TIMESTAMP)
