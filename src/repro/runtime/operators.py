"""The operator model: what user logic looks like to the runtime.

An :class:`Operator` is one link in a task's chain.  The task drives it
through a narrow protocol -- ``open``, ``process`` (per record),
``on_watermark``, timer callbacks, ``finish`` (bounded input exhausted),
``snapshot_state``/``restore_state`` (checkpoints), ``close`` -- and hands
it an :class:`OperatorContext` for emitting records, reaching keyed
state, registering timers and reading the clock.

Because *data at rest* is just a stream that ends, the batch operators in
:mod:`repro.runtime.batch` implement the very same protocol: they buffer
in ``process`` and emit in ``finish``.  That is the uniform model the
STREAMLINE paper describes, reduced to its essence.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Callable, Hashable, Iterable, List, Optional, Tuple

from repro.observability import MetricGroup
from repro.runtime.elements import Record
from repro.state.backend import KeyedStateBackend
from repro.state.descriptors import StateDescriptor
from repro.time.clock import Clock
from repro.time.timers import TimerService


class OperatorContext:
    """Everything an operator may touch at runtime.

    One context exists per operator instance (i.e. per chain position per
    subtask).  The owning task updates ``current_timestamp`` and the
    backend's current key before every callback.
    """

    def __init__(self, subtask_index: int, parallelism: int,
                 backend: KeyedStateBackend, timers: TimerService,
                 metrics: MetricGroup, clock: Clock,
                 collector: Callable[[Record], None]) -> None:
        self.subtask_index = subtask_index
        self.parallelism = parallelism
        self.backend = backend
        self.timers = timers
        self.metrics = metrics
        self.clock = clock
        self._collector = collector
        self.current_timestamp: Optional[int] = None
        #: Span collector when the engine runs with observability on;
        #: ``None`` otherwise, so operators guard with ``is not None``.
        self.tracer: Optional[Any] = None

    # -- output ---------------------------------------------------------
    def emit(self, value: Any, timestamp: Optional[int] = None) -> None:
        """Emit ``value`` downstream, inheriting the current element's
        timestamp and key unless an explicit timestamp is given."""
        ts = timestamp if timestamp is not None else self.current_timestamp
        self._collector(Record(value, ts, self.backend.current_key))

    def emit_record(self, record: Record) -> None:
        self._collector(record)

    def emit_columns(self, values: List[Any], timestamps: List[Any],
                     keys: List[Any]) -> None:
        """Emit a run given as parallel columns.  Rows begin here, one
        ``Record`` per row -- unless the owning task is a batched source
        task, which rebinds this name on the instance to what takes the
        run whole: the next operator's ``process_columns`` or its own
        output buffer."""
        collector = self._collector
        for record in map(Record, values, timestamps, keys):
            collector(record)

    # -- state ----------------------------------------------------------
    @property
    def current_key(self) -> Any:
        return self.backend.current_key

    def get_state(self, descriptor: StateDescriptor):
        return self.backend.get_state(descriptor)

    # -- time -----------------------------------------------------------
    def processing_time(self) -> int:
        return self.clock.now()

    def register_event_time_timer(self, timestamp: int,
                                  namespace: Hashable = None) -> None:
        self.timers.register_event_time_timer(
            timestamp, self.backend.current_key, namespace)

    def register_processing_time_timer(self, timestamp: int,
                                       namespace: Hashable = None) -> None:
        self.timers.register_processing_time_timer(
            timestamp, self.backend.current_key, namespace)

    def delete_event_time_timer(self, timestamp: int,
                                namespace: Hashable = None) -> None:
        self.timers.delete_event_time_timer(
            timestamp, self.backend.current_key, namespace)


class Operator:
    """Base class for every chained operator."""

    name = "operator"

    def __init__(self) -> None:
        self.ctx: Optional[OperatorContext] = None

    def open(self, ctx: OperatorContext) -> None:
        self.ctx = ctx

    def process(self, record: Record) -> None:
        """Handle one input record (input 0 for two-input operators)."""
        raise NotImplementedError

    def process2(self, record: Record) -> None:
        """Handle one record on the second input (two-input operators)."""
        raise NotImplementedError(
            "%s is not a two-input operator" % type(self).__name__)

    def process_batch(self, records: "List[Record]") -> None:
        """Handle a run of consecutive input-0 records.

        The contract mirrors what the task's per-record dispatcher does
        before every :meth:`process` call: the operator must scope the
        backend to each record's key and set ``ctx.current_timestamp``
        before touching state or emitting.  The default does exactly
        that in one loop; stateful operators override it to hoist
        lookups or to amortise work across the batch (bulk appends,
        per-key runs).  Semantics must stay record-for-record identical
        to calling :meth:`process` in order.
        """
        ctx = self.ctx
        set_key = ctx.backend.set_current_key
        process = self.process
        for record in records:
            set_key(record.key)
            ctx.current_timestamp = record.timestamp
            process(record)

    def process_columns(self, values: List[Any], timestamps: List[Any],
                        keys: List[Any]) -> None:
        """Handle a run that a batched source task hands on as parallel
        columns.  Rows begin at an operator that does not override
        this: they are built once, here, for :meth:`process_batch`."""
        self.process_batch(list(map(Record, values, timestamps, keys)))

    def make_batch_transform(self) -> "Optional[Callable[[List[Record]], List[Record]]]":
        """A pure records-in/records-out function, or ``None``.

        Only *stateless, timer-free, single-input* operators may return
        one: the fused batch fast path composes these transforms into a
        single Python-level call per batch per operator and routes the
        result straight to the task outputs, bypassing the per-record
        context bookkeeping (which stateless operators never read).
        """
        return None

    def make_column_kernel(self) -> "Optional[Callable[[List[Any], List[Any], List[Any]], Tuple[List[Any], List[Any], List[Any]]]]":
        """A pure column-wise kernel ``(values, timestamps, keys) ->
        (values, timestamps, keys)``, or ``None``.

        The columnar fast path (:func:`~repro.plan.chaining.compile_column_chain`)
        composes these over the parallel column lists of a
        :class:`~repro.runtime.elements.ColumnarBatch` -- no ``Record``
        object exists until after the fused prefix has mapped/filtered
        the columns, so dropped rows never pay object construction.  The
        eligibility bar is the same as :meth:`make_batch_transform`
        (stateless, timer-free, single-input), and the kernel must be
        row-for-row equivalent to it.
        """
        return None

    def on_watermark(self, timestamp: int) -> None:
        """Observe watermark advancement; due event-time timers have
        already fired.  The task forwards the watermark afterwards."""

    def on_event_timer(self, timestamp: int, key: Any,
                       namespace: Hashable) -> None:
        pass

    def on_processing_timer(self, timestamp: int, key: Any,
                            namespace: Hashable) -> None:
        pass

    def finish(self) -> None:
        """All inputs reached end-of-stream; flush any buffered results."""

    def on_checkpoint(self, checkpoint_id: int) -> None:
        """Called at the barrier cut, immediately before
        :meth:`snapshot_state`.  Transactional sinks pre-commit (phase
        one of two-phase commit) here; most operators ignore it."""

    def notify_checkpoint_complete(self, checkpoint_id: int) -> None:
        """Called once the coordinator sealed ``checkpoint_id`` (every
        participant acknowledged).  Transactional sinks commit their
        pre-committed transactions on this signal -- never earlier."""

    def snapshot_state(self) -> Any:
        """Operator (non-keyed) state for checkpoints; keyed state is
        snapshotted by the task via the backend.  May return a view of
        live state: the task serialises it into the checkpoint's
        :class:`~repro.state.checkpoint.TaskSnapshot` before this
        operator runs again, so no copy is needed here."""
        return None

    def restore_state(self, state: Any) -> None:
        """Put back what :meth:`snapshot_state` returned, as fresh
        objects decoded for this call: the operator takes ownership and
        may keep and mutate them."""

    def rescale_operator_state(self, states: "List[Any]",
                               subtask_index: int,
                               parallelism: int) -> Any:
        """Combine the operator states of the *old* subtasks into this
        new subtask's state when restoring a savepoint at different
        parallelism.

        The default accepts trivially-rescalable states only: all
        ``None``, or all equal (replicated configuration-style state).
        Operators holding per-record-key dictionaries override this to
        merge and filter by the engine's key hash.  The result may
        share objects with ``states``: each new subtask's
        :class:`~repro.state.checkpoint.TaskSnapshot` serialises it.
        """
        non_null = [state for state in states if state is not None]
        if not non_null:
            return None
        first = non_null[0]
        if all(state == first for state in non_null[1:]):
            return first
        raise NotImplementedError(
            "%s state cannot be rescaled (%d differing subtask states); "
            "override rescale_operator_state" % (type(self).__name__,
                                                 len(non_null)))

    def close(self) -> None:
        pass

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, self.name)


def rescale_keyed_dict_state(states: "List[Any]", subtask_index: int,
                             parallelism: int) -> dict:
    """Shared override body for operators whose non-keyed state is a
    ``{record_key: state}`` dict: union the dicts, keep this subtask's
    keys (engine hash routing)."""
    from repro.runtime.partition import owner_of_key
    merged = {}
    for state in states:
        if not state:
            continue
        for key, value in state.items():
            if owner_of_key(key, parallelism) == subtask_index:
                merged[key] = value
    return merged


# ---------------------------------------------------------------------------
# Sources
# ---------------------------------------------------------------------------

class SourceContext:
    """Restricted emission surface handed to source functions."""

    def __init__(self, operator_ctx: OperatorContext) -> None:
        self._ctx = operator_ctx

    def collect(self, value: Any) -> None:
        self._ctx.emit_record(Record(value, None))

    def collect_batch(self, values: Iterable[Any]) -> None:
        """Emit a run of untimestamped values in one call -- the bulk
        path high-throughput sources use to skip the per-record
        emission chain."""
        values = list(values)
        self._ctx.emit_columns(values, [None] * len(values),
                               [None] * len(values))

    def collect_batch_with_timestamps(
            self, pairs: Iterable[Tuple[Any, int]]) -> None:
        """Emit a run of ``(value, timestamp)`` pairs in one call: the
        timestamped twin of :meth:`collect_batch`."""
        pairs = list(pairs)
        self._ctx.emit_columns([value for value, _ in pairs],
                               [timestamp for _, timestamp in pairs],
                               [None] * len(pairs))

    def processing_time(self) -> int:
        return self._ctx.processing_time()


class SourceOperator(Operator):
    """A pull-driven source: the task calls :meth:`emit_batch` each step.

    Sources are *replayable* for exactly-once recovery: they snapshot a
    position and can rewind to it.  ``rescalable_source`` marks sources
    whose replay ownership redistributes cleanly (partition-based
    sources); positional sources must keep their parallelism across
    savepoints.
    """

    name = "source"
    rescalable_source = False
    #: Multiplies the task's per-step record budget (``HybridSource``
    #: raises it while it drains its bounded prefix).
    source_burst_factor = 1

    def emit_batch(self, source_ctx: SourceContext, max_records: int) -> bool:
        """Emit up to ``max_records``; return False when exhausted."""
        raise NotImplementedError

    def process(self, record: Record) -> None:
        raise RuntimeError("sources have no inputs")

    @staticmethod
    def _emit_run(source_ctx: SourceContext, run: List[Any],
                  timestamped: bool) -> None:
        """Hand one step's elements to the chain as a single run."""
        if run and timestamped:
            source_ctx.collect_batch_with_timestamps(run)
        elif run:
            source_ctx.collect_batch(run)


class ReplayCursor:
    """A replayable input: the one place a source iterable is
    re-created, dealt out by stride and skipped to an offset.

    ``factory`` returns a fresh iterable on every call; the cursor owns
    the elements with ``index % step == start`` (an
    :func:`itertools.islice` stride, so foreign elements are skipped at
    C speed) and counts the owned elements taken in ``offset`` -- the
    position a source checkpoints.  A cursor is cold until its first
    :meth:`take` or :meth:`rewind`: building one never calls the factory.
    """

    def __init__(self, factory: Callable[[], Iterable[Any]],
                 start: int = 0, step: int = 1) -> None:
        self._factory = factory
        self._start = start
        self._step = step
        self.set_position(0)

    def set_position(self, offset: int, exhausted: bool = False) -> None:
        """Stand at ``offset`` without reading anything: an ``exhausted``
        cursor is never opened again (a drained input is not re-read on
        restore), any other is opened and skipped forward by its next
        :meth:`take`."""
        self._iterator: Optional[Any] = None
        self.offset = offset
        self.exhausted = exhausted

    def rewind(self, offset: int) -> None:
        """Re-create the iterable and skip the first ``offset`` owned
        elements.  A replay shorter than that (shrunk input) clamps the
        offset to what was there and leaves the cursor exhausted."""
        self._iterator = islice(iter(self._factory()),
                                self._start, None, self._step)
        self.offset = sum(1 for _ in islice(self._iterator, offset))
        self.exhausted = self.offset < offset

    def take(self, n: int) -> List[Any]:
        """The next up-to-``n`` owned elements; a chunk shorter than
        ``n`` means the input ended (``exhausted``)."""
        if self.exhausted:
            return []
        if self._iterator is None:
            self.rewind(self.offset)
        chunk = list(islice(self._iterator, n))
        self.offset += len(chunk)
        self.exhausted = len(chunk) < n
        return chunk


class IteratorSource(SourceOperator):
    """Wraps a factory of (re-creatable) iterables into a replayable source.

    Values may be plain objects or ``(value, timestamp)`` pairs when
    ``timestamped=True``.  Each subtask receives the slice of elements
    with ``index % parallelism == subtask_index`` so that a single
    logical collection is split across parallel source instances
    deterministically.
    """

    def __init__(self, iterable_factory: Callable[[], Iterable[Any]],
                 timestamped: bool = False, name: str = "iterator-source") -> None:
        super().__init__()
        self.name = name
        self._factory = iterable_factory
        self._timestamped = timestamped

    def open(self, ctx: OperatorContext) -> None:
        super().open(ctx)
        self._cursor = ReplayCursor(self._factory, ctx.subtask_index,
                                    ctx.parallelism)

    def emit_batch(self, source_ctx: SourceContext, max_records: int) -> bool:
        self._emit_run(source_ctx, self._cursor.take(max_records),
                       self._timestamped)
        return not self._cursor.exhausted

    def snapshot_state(self) -> Any:
        return {"offset": self._cursor.offset}

    def restore_state(self, state: Any) -> None:
        self._cursor.rewind(state["offset"])


# ---------------------------------------------------------------------------
# Stateless transformations
# ---------------------------------------------------------------------------

class MapOperator(Operator):
    def __init__(self, fn: Callable[[Any], Any], name: str = "map") -> None:
        super().__init__()
        self.name = name
        self._fn = fn

    def process(self, record: Record) -> None:
        self.ctx.emit_record(record.with_value(self._fn(record.value)))

    def make_batch_transform(self):
        fn = self._fn
        make = Record
        return lambda records: [make(fn(r.value), r.timestamp, r.key)
                                for r in records]

    def make_column_kernel(self):
        fn = self._fn
        return lambda values, timestamps, keys: (
            [fn(v) for v in values], timestamps, keys)


class FlatMapOperator(Operator):
    def __init__(self, fn: Callable[[Any], Iterable[Any]],
                 name: str = "flat-map") -> None:
        super().__init__()
        self.name = name
        self._fn = fn

    def process(self, record: Record) -> None:
        for value in self._fn(record.value):
            self.ctx.emit_record(record.with_value(value))

    def make_batch_transform(self):
        fn = self._fn
        make = Record
        return lambda records: [make(value, r.timestamp, r.key)
                                for r in records for value in fn(r.value)]

    def make_column_kernel(self):
        fn = self._fn

        def kernel(values, timestamps, keys):
            out_values: List[Any] = []
            out_timestamps: List[Any] = []
            out_keys: List[Any] = []
            for v, ts, k in zip(values, timestamps, keys):
                for produced in fn(v):
                    out_values.append(produced)
                    out_timestamps.append(ts)
                    out_keys.append(k)
            return out_values, out_timestamps, out_keys

        return kernel


class FilterOperator(Operator):
    def __init__(self, predicate: Callable[[Any], bool],
                 name: str = "filter") -> None:
        super().__init__()
        self.name = name
        self._predicate = predicate

    def process(self, record: Record) -> None:
        if self._predicate(record.value):
            self.ctx.emit_record(record)

    def make_batch_transform(self):
        predicate = self._predicate
        return lambda records: [r for r in records if predicate(r.value)]

    def make_column_kernel(self):
        predicate = self._predicate

        def kernel(values, timestamps, keys):
            keep = [i for i, v in enumerate(values) if predicate(v)]
            if len(keep) == len(values):
                return values, timestamps, keys
            return ([values[i] for i in keep],
                    [timestamps[i] for i in keep],
                    [keys[i] for i in keep])

        return kernel


# ---------------------------------------------------------------------------
# Keyed / stateful transformations
# ---------------------------------------------------------------------------

class KeyedReduceOperator(Operator):
    """Rolling reduce per key: emits the updated aggregate for every input
    record (streaming semantics)."""

    def __init__(self, reduce_fn: Callable[[Any, Any], Any],
                 name: str = "reduce") -> None:
        super().__init__()
        self.name = name
        self._reduce_fn = reduce_fn

    def open(self, ctx: OperatorContext) -> None:
        super().open(ctx)
        from repro.state.descriptors import ReducingStateDescriptor
        self._state = ctx.get_state(
            ReducingStateDescriptor("rolling-reduce", self._reduce_fn))

    def process(self, record: Record) -> None:
        self._state.add(record.value)
        self.ctx.emit_record(record.with_value(self._state.get()))


class KeyedFoldOperator(Operator):
    """Rolling fold per key from an initial value; emits ``(key, acc)``
    after every input record."""

    def __init__(self, initial: Any, fold_fn: Callable[[Any, Any], Any],
                 name: str = "fold") -> None:
        super().__init__()
        self.name = name
        self._initial = initial
        self._fold_fn = fold_fn

    def open(self, ctx: OperatorContext) -> None:
        super().open(ctx)
        from repro.state.descriptors import ValueStateDescriptor
        self._state = ctx.get_state(
            ValueStateDescriptor("rolling-fold", default=None))

    def process(self, record: Record) -> None:
        current = self._state.value()
        if current is None:
            current = self._initial
        updated = self._fold_fn(current, record.value)
        self._state.update(updated)
        self.ctx.emit_record(record.with_value((record.key, updated)))


class ProcessFunction:
    """User-facing low-level function with state and timer access."""

    def open(self, ctx: OperatorContext) -> None:
        pass

    def process_element(self, value: Any, ctx: OperatorContext) -> None:
        raise NotImplementedError

    def on_timer(self, timestamp: int, ctx: OperatorContext) -> None:
        pass

    def finish(self, ctx: OperatorContext) -> None:
        pass


class KeyedProcessOperator(Operator):
    """Runs a :class:`ProcessFunction` with full state/timer access.

    The user's function object is deep-copied per operator instance,
    mirroring Flink's serialize-and-ship semantics: each parallel subtask
    gets its own copy, so instance attributes (e.g. state handles bound in
    ``open``) never leak across subtasks.
    """

    def __init__(self, fn: ProcessFunction, name: str = "process") -> None:
        super().__init__()
        import copy
        self.name = name
        self._fn = copy.deepcopy(fn)

    def open(self, ctx: OperatorContext) -> None:
        super().open(ctx)
        self._fn.open(ctx)

    def process(self, record: Record) -> None:
        self._fn.process_element(record.value, self.ctx)

    def on_event_timer(self, timestamp: int, key: Any,
                       namespace: Hashable) -> None:
        self._fn.on_timer(timestamp, self.ctx)

    def on_processing_timer(self, timestamp: int, key: Any,
                            namespace: Hashable) -> None:
        self._fn.on_timer(timestamp, self.ctx)

    def finish(self) -> None:
        self._fn.finish(self.ctx)


class CoProcessOperator(Operator):
    """Two-input operator: distinct handlers per input, shared keyed state.

    The building block for stream-stream joins and for
    connect/broadcast patterns (e.g. model updates joined with events in
    the recommendation example).
    """

    def __init__(self, fn1: Callable[[Any, OperatorContext], None],
                 fn2: Callable[[Any, OperatorContext], None],
                 name: str = "co-process",
                 on_finish: Optional[Callable[[OperatorContext], None]] = None) -> None:
        super().__init__()
        self.name = name
        self._fn1 = fn1
        self._fn2 = fn2
        self._on_finish = on_finish

    def process(self, record: Record) -> None:
        self._fn1(record.value, self.ctx)

    def process2(self, record: Record) -> None:
        self._fn2(record.value, self.ctx)

    def finish(self) -> None:
        if self._on_finish is not None:
            self._on_finish(self.ctx)


# ---------------------------------------------------------------------------
# Timestamps and watermarks
# ---------------------------------------------------------------------------

class TimestampsAndWatermarksOperator(Operator):
    """Assigns event timestamps and generates watermarks from the data.

    Watermark emission is *record-driven* in the deterministic runtime:
    the periodic generator is polled every ``poll_every`` records instead
    of on a wall-clock interval, preserving semantics while staying
    reproducible.
    """

    def __init__(self, strategy: "WatermarkStrategy",
                 poll_every: int = 1,
                 name: str = "timestamps/watermarks") -> None:
        super().__init__()
        if poll_every < 1:
            raise ValueError("poll_every must be >= 1")
        self.name = name
        self._strategy = strategy
        self._poll_every = poll_every
        self._generator = None
        self._since_poll = 0
        self._last_emitted: Optional[int] = None
        self.emit_watermark_fn: Optional[Callable[[int], None]] = None

    def open(self, ctx: OperatorContext) -> None:
        super().open(ctx)
        self._generator = self._strategy.generator_factory()

    def _maybe_emit(self, watermark_ts: Optional[int]) -> None:
        if watermark_ts is None:
            return
        if self._last_emitted is not None and watermark_ts <= self._last_emitted:
            return
        self._last_emitted = watermark_ts
        if self.emit_watermark_fn is not None:
            self.emit_watermark_fn(watermark_ts)

    def process(self, record: Record) -> None:
        timestamp = self._strategy.timestamp_assigner(record.value)
        self.ctx.emit_record(Record(record.value, timestamp, record.key))
        self._maybe_emit(self._generator.on_event(record.value, timestamp))
        self._since_poll += 1
        if self._since_poll >= self._poll_every:
            self._since_poll = 0
            self._maybe_emit(self._generator.on_periodic())

    def process_batch(self, records: List[Record]) -> None:
        """:meth:`process` over a run of rows (this operator at the head
        of a processing task): the column run over their fields."""
        self.process_columns([record.value for record in records], None,
                             [record.key for record in records])

    def process_columns(self, values: List[Any], timestamps: Any,
                        keys: List[Any]) -> None:
        """:meth:`process` over a run of columns.  The timestamp column
        is stamped in one pass and the run is emitted in pieces that end
        exactly where ``process`` would have emitted a watermark, so each
        watermark lands at its position among the records (in batched
        execution: as a mark inside the task's output batch)."""
        timestamps = list(map(self._strategy.timestamp_assigner, values))
        on_periodic = self._generator.on_periodic
        poll_every = self._poll_every
        emit_columns = self.ctx.emit_columns
        last = self._last_emitted
        start = 0

        def cut(stop: int, watermark_ts: int) -> None:
            nonlocal start, last
            if stop > start:
                emit_columns(values[start:stop], timestamps[start:stop],
                             keys[start:stop])
            self._maybe_emit(watermark_ts)
            start, last = stop, watermark_ts

        for stop, watermark_ts in enumerate(
                map(self._generator.on_event, values, timestamps), 1):
            if watermark_ts is not None and (last is None
                                             or watermark_ts > last):
                cut(stop, watermark_ts)
            self._since_poll += 1
            if self._since_poll >= poll_every:
                self._since_poll = 0
                watermark_ts = on_periodic()
                if watermark_ts is not None and (last is None
                                                 or watermark_ts > last):
                    cut(stop, watermark_ts)
        if start < len(values):
            emit_columns(values[start:], timestamps[start:], keys[start:])

    def finish(self) -> None:
        self._maybe_emit(self._generator.on_periodic())

    def snapshot_state(self) -> Any:
        return {"last_emitted": self._last_emitted}

    def restore_state(self, state: Any) -> None:
        # The generator is the fresh one ``open`` built: watermarks are
        # regenerated from the replayed records, and anything at or
        # below the checkpointed ``last_emitted`` is deduplicated in
        # _maybe_emit.
        self._last_emitted = state["last_emitted"]

    def rescale_operator_state(self, states, subtask_index: int,
                               parallelism: int) -> Any:
        emitted = [state["last_emitted"] for state in states
                   if state and state["last_emitted"] is not None]
        # Conservative: restart watermarking from the lowest emitted
        # value (duplicated watermarks are deduplicated downstream).
        return {"last_emitted": min(emitted) if emitted else None}


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------

class SinkOperator(Operator):
    """Marker base class: terminal operators."""

    name = "sink"


class ForEachSink(SinkOperator):
    """Invokes a callback per record; for side-effecting sinks."""

    def __init__(self, fn: Callable[[Any], None],
                 name: str = "foreach-sink") -> None:
        super().__init__()
        self.name = name
        self._fn = fn

    def process(self, record: Record) -> None:
        self._fn(record.value)

    def process_batch(self, records: List[Record]) -> None:
        fn = self._fn
        for record in records:
            fn(record.value)


# Imported late to avoid a cycle: watermarks -> elements only.
from repro.time.watermarks import WatermarkStrategy  # noqa: E402  (doc reference)
# Defined with the exactly-once sinks whose protocol it runs, which
# import this module.
from repro.connectors.sinks import CollectSink  # noqa: E402,F401
