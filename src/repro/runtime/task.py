"""Subtasks: the unit of parallel execution.

A :class:`Task` executes one *chain* of operators (one
:class:`~repro.plan.graph.JobVertex` at one parallel index).  It is
step-driven by the scheduler:

* ``step()`` consumes a bounded number of elements from its input
  channels (fair round-robin) or, for sources, emits a bounded burst;
* records flow synchronously through the chain -- each operator's
  collector dispatches straight into the next operator, and the chain
  tail routes into output edges via their partitioners;
* watermarks are tracked per input channel; when the minimum across all
  live channels advances, due event-time timers fire for every chained
  operator (in chain order) before the watermark is forwarded;
* checkpoint barriers are *aligned*: a channel that delivered the barrier
  for the in-flight checkpoint is blocked until all channels did, then
  state is snapshotted, the coordinator is acknowledged, and the barrier
  is broadcast downstream;
* ``EndOfStream`` on all inputs triggers ``finish()`` down the chain --
  this is where bounded (batch) operators emit -- followed by EOS
  broadcast.
"""

from __future__ import annotations

import pickle
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.observability import MetricGroup
from repro.runtime.channels import Channel
from repro.runtime.elements import (
    END_OF_STREAM,
    MAX_TIMESTAMP,
    MIN_TIMESTAMP,
    CheckpointBarrier,
    Mark,
    Record,
    RecordBatch,
    StreamElement,
    Watermark,
    segments,
    unpack,
)
from repro.runtime.operators import (
    Operator,
    OperatorContext,
    SourceContext,
    SourceOperator,
)
from repro.runtime.partition import (
    BroadcastPartitioner,
    ForwardPartitioner,
    GlobalPartitioner,
    HashPartitioner,
    Partitioner,
    RebalancePartitioner,
    owner_of_key,
)
from repro.state.backend import KeyedStateBackend
from repro.state.checkpoint import SubtaskId, TaskSnapshot, make_subtask_id
from repro.time.clock import Clock
from repro.time.timers import TimerService

#: What pickling state it cannot carry raises (a lambda, a lock, a
#: generator, a class defined inside a function).
_UNPICKLABLE = (pickle.PicklingError, TypeError, AttributeError)


class ColumnRun:
    """A run of records as parallel value / timestamp / key lists: what
    a batched source task buffers and a column kernel's survivors leave
    as (:meth:`OutputEdge.emit_columnar`).  Never enters a channel."""

    __slots__ = ("values", "timestamps", "keys")

    def __init__(self, *columns: List[Any]) -> None:
        self.values, self.timestamps, self.keys = columns or ([], [], [])

    def __len__(self) -> int:
        return len(self.values)

    def append(self, record: Record) -> None:
        self.extend((record.value,), (record.timestamp,), (record.key,))

    def extend(self, values: Iterable[Any], timestamps: Iterable[Any],
               keys: Iterable[Any]) -> None:
        self.values.extend(values)
        self.timestamps.extend(timestamps)
        self.keys.extend(keys)


class OutputEdge:
    """One outgoing job edge of a subtask: a partitioner plus the row of
    channels leading to every downstream subtask."""

    def __init__(self, partitioner: Partitioner, channels: List[Channel],
                 subtask_index: int) -> None:
        if not channels:
            raise ValueError("an output edge needs at least one channel")
        self.partitioner = partitioner
        self.channels = channels
        self.subtask_index = subtask_index
        #: The one routing decision, resolved at wiring time: the
        #: channels a batch travels to *whole* (pointwise, global,
        #: broadcast and single-channel round-robin routes), or ``None``
        #: when the route has to look at each record (keyed, multi-
        #: channel round-robin, unknown partitioners).
        self._whole: Optional[List[Channel]] = None
        #: Round-robin routes reserve one cursor slot per record, whole
        #: batches included: the cursor is part of the checkpoint.
        self._advance: Optional[Callable[[int], int]] = None
        if isinstance(partitioner, ForwardPartitioner):
            self._whole = [channels[subtask_index % len(channels)]]
        elif isinstance(partitioner, GlobalPartitioner):
            self._whole = channels[:1]
        elif isinstance(partitioner, BroadcastPartitioner):
            self._whole = list(channels)
        elif isinstance(partitioner, RebalancePartitioner):
            self._advance = partitioner.advance
            if len(channels) == 1:
                self._whole = channels[:1]
        #: The channels a whole route skips: they get its marks alone.
        self._bystanders = ([channel for channel in channels
                             if channel not in self._whole]
                            if self._whole is not None else [])

    def _emit_by_key(self, values: Sequence[Any], timestamps: Sequence[Any],
                     marks: Sequence[Mark] = ()) -> None:
        """How a hash edge routes a run: build the one keyed ``Record``
        per row (a row that came as a record may be shared with other
        edges) and group them by the channel that owns the key, keeping
        arrival order within a channel.  Every keyed emission, this one
        and :meth:`emit_record`'s, finds the owner with
        :func:`owner_of_key`, so an unhashable or identity-hashed key is
        rejected whatever the batch size or the channel count."""
        select_key = self.partitioner.key_selector
        total = len(self.channels)

        def fill(buckets: List[List[Record]], start: int, stop: int) -> None:
            for value, timestamp in zip(values[start:stop],
                                        timestamps[start:stop]):
                key = select_key(value)
                buckets[owner_of_key(key, total)].append(
                    Record(value, timestamp, key))

        self._route_each(len(values), marks, fill)

    def _route_each(self, count: int, marks: Sequence[Mark],
                    fill: Callable[[List[List[Record]], int, int], None]
                    ) -> None:
        """Route ``count`` rows one segment between two marks at a time
        (``fill`` puts rows ``[start:stop)`` into one bucket per
        channel), then push every channel its bucket.  Each mark goes to
        every channel, at the position that channel's own rows put it;
        a channel with no rows gets the marks alone."""
        buckets: List[List[Record]] = [[] for _ in self.channels]
        placed: List[List[Mark]] = [[] for _ in self.channels]
        for start, stop, watermark in segments(count, marks):
            if stop > start:
                fill(buckets, start, stop)
            if watermark is not None:
                for bucket, own in zip(buckets, placed):
                    own.append((len(bucket), watermark))
        for channel, bucket, own in zip(self.channels, buckets, placed):
            if own or len(bucket) > 1:
                channel.push(RecordBatch(bucket, own))
            elif bucket:
                channel.push(bucket[0])

    def emit_record(self, record: Record) -> None:
        if isinstance(self.partitioner, HashPartitioner):
            key = self.partitioner.key_selector(record.value)
            self.channels[owner_of_key(key, len(self.channels))].push(
                Record(record.value, record.timestamp, key))
            return
        for index in self.partitioner.select(record, len(self.channels),
                                             self.subtask_index):
            self.channels[index].push(record)

    def emit_batch(self, records: List[Record],
                   marks: Sequence[Mark] = ()) -> None:
        """Route a run of records, and the watermarks among them, in one
        call, preserving per-channel FIFO order.

        Whole-batch routes forward one batch object per channel; keyed
        and round-robin routes group records into per-channel
        sub-batches in a single pass -- the partitioning work that the
        scalar path pays per record is paid once per batch here.
        Unknown partitioners route record by record.
        """
        if isinstance(self.partitioner, HashPartitioner):
            self._emit_by_key([r.value for r in records],
                              [r.timestamp for r in records], marks)
        else:
            self._emit_rows(records, marks)

    def _emit_rows(self, records: List[Record],
                   marks: Sequence[Mark]) -> None:
        """Every route of :meth:`emit_batch` but the keyed one."""
        channels = self.channels
        total = len(channels)
        cursor = (self._advance(len(records))
                  if self._advance is not None else None)
        if self._whole is not None:
            for channel in self._whole:
                # Copy: the caller's buffer is shared across edges, and
                # chaos may carve records out of a pushed batch in place.
                channel.push(RecordBatch(list(records), marks))
            if marks:
                for channel in self._bystanders:
                    channel.push(RecordBatch([], marks))
            return
        if cursor is not None:
            def fill(buckets: List[List[Record]], start: int,
                     stop: int) -> None:
                # Record j goes to channel (j + cursor) % total.
                for index, bucket in enumerate(buckets):
                    bucket.extend(records[
                        start + (index - cursor - start) % total:stop:total])
        else:
            select = self.partitioner.select

            def fill(buckets: List[List[Record]], start: int,
                     stop: int) -> None:
                for record in records[start:stop]:
                    for index in select(record, total, self.subtask_index):
                        buckets[index].append(record)
        self._route_each(len(records), marks, fill)

    def emit_columnar(self, batch: Any, marks: Sequence[Mark] = ()) -> None:
        """Route a run that arrives as columns: a :class:`ColumnRun` with
        its ``marks``, or a ``ColumnarBatch``, which travels a whole-batch
        route as it is (no copy: chaos mutation hooks demote a queued
        columnar batch to a private row twin instead of editing it in
        place).  Everywhere else rows begin here, each built once: with
        its key on a hash edge, for the ``RecordBatch`` it fills on the
        other routes."""
        if not isinstance(batch, ColumnRun):
            if self._whole is not None:
                if self._advance is not None:
                    self._advance(len(batch))
                for channel in self._whole:
                    channel.push(batch)
                return
            batch = ColumnRun(batch.value_list(), batch.timestamp_list(),
                              batch.key_list())
        if isinstance(self.partitioner, HashPartitioner):
            self._emit_by_key(batch.values, batch.timestamps, marks)
        else:
            self._emit_rows(list(map(Record, batch.values, batch.timestamps,
                                     batch.keys)), marks)

    def broadcast(self, element: StreamElement) -> None:
        for channel in self.channels:
            channel.push(element)


class _ChainedOperator:
    """Per-chain-position runtime: the operator plus its private state
    backend, timer service and context."""

    def __init__(self, operator: Operator, backend: KeyedStateBackend,
                 timers: TimerService, ctx: OperatorContext) -> None:
        self.operator = operator
        self.backend = backend
        self.timers = timers
        self.ctx = ctx


class Task:
    """One parallel subtask executing a chain of operators."""

    def __init__(self, vertex_name: str, vertex_id: int, subtask_index: int,
                 parallelism: int, operators: List[Operator],
                 clock: Clock, metrics: MetricGroup,
                 elements_per_step: int = 32,
                 batch_size: int = 1,
                 tracer: Optional[Any] = None) -> None:
        if not operators:
            raise ValueError("a task needs at least one operator")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.vertex_name = vertex_name
        self.vertex_id = vertex_id
        self.subtask_index = subtask_index
        self.parallelism = parallelism
        self.clock = clock
        self.metrics = metrics
        self.elements_per_step = elements_per_step
        self.batch_size = batch_size
        self._batching = batch_size > 1
        #: Span collector of the observability layer; ``None`` (the
        #: default) keeps every tracing branch a dead ``is not None``.
        self._tracer = tracer
        #: Records emitted by the chain tail since the last flush (in a
        #: source task: by the operator in front of the fused suffix,
        #: which the flush applies); they leave as one RecordBatch at
        #: the next buffer fill, end of step, barrier or end of input --
        #: the last two are what guarantees a batch never straddles a
        #: barrier/EOS boundary.  A list of rows, or in a batched source
        #: task a :class:`ColumnRun`.
        self._out_buffer: Any = []
        #: Watermarks forwarded since the last flush, each as a mark
        #: ``(offset, timestamp)`` at its position in ``_out_buffer``:
        #: they leave inside the batch the flush ships.
        self._out_marks: List[Mark] = []

        self.inputs: List[Tuple[Channel, int]] = []   # (channel, input index)
        self.output_edges: List[OutputEdge] = []
        self._output_channels: List[Channel] = []

        self._records_in = metrics.counter("records_in")
        self._records_out = metrics.counter("records_out")
        self._watermark_gauge = metrics.gauge("current_watermark")

        self.finished = False
        self.failed: Optional[BaseException] = None

        # The chaos ``poison`` hook: that many upcoming input records
        # raise ``PoisonPill``, which fails the task like any raising
        # callback.
        self.poison_next_records = 0

        # Watermark tracking.
        self._channel_watermarks: Dict[int, int] = {}
        self._combined_watermark = MIN_TIMESTAMP
        self._emitted_watermark = MIN_TIMESTAMP

        # Barrier alignment.  ``_min_checkpoint_id`` rises when the
        # coordinator aborts a checkpoint: barriers of aborted (stale)
        # checkpoints still in flight are then ignored.
        self._aligning_checkpoint: Optional[int] = None
        self._aligned_channels: set = set()
        self._min_checkpoint_id = 0
        self.pending_checkpoint: Optional[int] = None  # set by coordinator (sources)
        self.checkpoint_ack: Optional[Callable[[int, TaskSnapshot], None]] = None

        # Fair input polling.
        self._next_input = 0

        self._is_source = isinstance(operators[0], SourceOperator)

        # Batched fast path: fuse the longest stateless prefix of the
        # chain into one records-in/records-out function.
        self._fused_fn = None
        self._fused_prefix = 0
        # Columnar fast path: the same stateless prefix compiled into a
        # column kernel, applied when the input element is a
        # ColumnarBatch so no Record is built before the kernel has
        # mapped/filtered the columns.
        self._column_kernel = None
        self._kernel_prefix = 0
        # A source task has no input batch to fuse over: its runs travel
        # as columns (no Record upstream of the output edges) and its
        # maximal stateless *suffix*, fused into a column kernel, is
        # applied to each run as it leaves the task (``_flush_out_buffer``).
        self._suffix_fn = None
        suffix_start = len(operators)
        if self._batching:
            from repro.plan.chaining import (
                compile_batch_chain,
                compile_column_chain,
            )
            if self._is_source:
                self._out_buffer = ColumnRun()
                while suffix_start > 1 and (
                        operators[suffix_start - 1].make_column_kernel()
                        is not None):
                    suffix_start -= 1
                self._suffix_fn, _ = compile_column_chain(
                    operators[suffix_start:])
            else:
                self._fused_fn, self._fused_prefix = compile_batch_chain(
                    operators)
                self._column_kernel, self._kernel_prefix = (
                    compile_column_chain(operators))

        # Build the chain back to front so each collector targets the
        # next.  The last operator in front of the fused suffix (the
        # chain tail when there is none) collects into the out buffer.
        self.chain: List[_ChainedOperator] = []
        into_buffer = (self._buffer_output if self._batching
                       else self._route_to_outputs)
        collector = into_buffer
        columns = isinstance(self._out_buffer, ColumnRun)
        for position in reversed(range(len(operators))):
            operator = operators[position]
            backend = KeyedStateBackend()
            timers = TimerService()
            feeds_buffer = position == suffix_start - 1
            if feeds_buffer:
                collector = into_buffer
            ctx = OperatorContext(subtask_index, parallelism, backend, timers,
                                  metrics, clock, collector)
            if columns and position < suffix_start:
                # A run stays a run: into the next operator, and from
                # the one in front of the suffix into the output buffer.
                ctx.emit_columns = (
                    self._buffer_output_batch if feeds_buffer
                    else operators[position + 1].process_columns)
            ctx.tracer = tracer
            chained = _ChainedOperator(operator, backend, timers, ctx)
            self.chain.insert(0, chained)
            # Watermark-emitting chain operators (timestamp assigners,
            # hybrid sources emitting the cutover watermark) declare an
            # ``emit_watermark_fn`` attribute; the task wires it to the
            # chain position so emissions advance the suffix first.
            if hasattr(operator, "emit_watermark_fn"):
                operator.emit_watermark_fn = self._watermark_from_chain(position)
            collector = self._make_dispatcher(chained)

        self._source_ctx = (SourceContext(self.chain[0].ctx)
                            if self._is_source else None)

        self._columnar_batches = metrics.counter("columnar_batches_in")
        self._columnar_fallbacks = metrics.counter("columnar_fallbacks")

    # -- identity ---------------------------------------------------------

    @property
    def subtask_id(self) -> SubtaskId:
        return make_subtask_id(self.vertex_id, self.vertex_name,
                               self.subtask_index)

    @property
    def is_source(self) -> bool:
        return self._is_source

    @property
    def current_watermark(self) -> int:
        """The minimum watermark across this subtask's live inputs --
        what the observability sampler reads for lag/skew gauges."""
        return self._combined_watermark

    def __repr__(self) -> str:
        # Diagnostic: stall/failure reports print lists of tasks, so the
        # repr must show *why* a task is stuck -- queue depths, blocked
        # channels and terminal flags -- not just its identity.
        parts = ["%s#%d" % (self.vertex_name, self.subtask_index)]
        if self.inputs:
            parts.append("in_depths=%s"
                         % [channel.size for channel, _ in self.inputs])
            blocked = [index for index, (channel, _)
                       in enumerate(self.inputs) if channel.blocked]
            if blocked:
                parts.append("blocked_inputs=%s" % blocked)
        if self.output_edges and not self.has_output_capacity:
            parts.append("backpressured")
        if self._aligning_checkpoint is not None:
            parts.append("aligning_ckpt=%d" % self._aligning_checkpoint)
        if self.finished:
            parts.append("finished")
        if self.failed is not None:
            parts.append("failed=%r" % self.failed)
        return "Task(%s)" % ", ".join(parts)

    # -- wiring -----------------------------------------------------------

    def add_input(self, channel: Channel, input_index: int) -> None:
        self.inputs.append((channel, input_index))
        self._channel_watermarks[len(self.inputs) - 1] = MIN_TIMESTAMP

    def add_output_edge(self, edge: OutputEdge) -> None:
        self.output_edges.append(edge)
        # Flattened once so the scheduler's runnable scan reads cached
        # channel occupancies without re-walking the edge structure.
        self._output_channels.extend(edge.channels)

    def operator_reports(self, attr: str) -> List[Dict[str, Any]]:
        """Rows from every chained operator exposing an ``attr()`` report
        method -- how ``job_report`` assembles per-operator sections
        (cutover, arrangements) without knowing operator types."""
        rows: List[Dict[str, Any]] = []
        for chained in self.chain:
            report_fn = getattr(chained.operator, attr, None)
            if callable(report_fn):
                row: Dict[str, Any] = {"operator": self.vertex_name,
                                       "subtask": self.subtask_index}
                row.update(report_fn())
                rows.append(row)
        return rows

    def open(self) -> None:
        for chained in self.chain:
            chained.operator.open(chained.ctx)

    # -- record routing through the chain ----------------------------------

    def _make_dispatcher(self, chained: _ChainedOperator
                         ) -> Callable[[Record], None]:
        def dispatch(record: Record) -> None:
            chained.backend.set_current_key(record.key)
            chained.ctx.current_timestamp = record.timestamp
            chained.operator.process(record)
        return dispatch

    def _route_to_outputs(self, record: Record) -> None:
        self._records_out.inc()
        for edge in self.output_edges:
            edge.emit_record(record)

    def _buffer_output(self, record: Record) -> None:
        """Chain-tail collector in batched mode: coalesce emissions until
        the buffer fills, the step ends or a barrier or end of input
        forces a flush."""
        self._out_buffer.append(record)
        if len(self._out_buffer) >= self.batch_size:
            self._flush_out_buffer()

    def _buffer_output_batch(self, *run: List[Any]) -> None:
        """Bulk variant of :meth:`_buffer_output`: one extend per run (a
        list of records; in a source task, its three columns)."""
        self._out_buffer.extend(*run)
        if len(self._out_buffer) >= self.batch_size:
            self._flush_out_buffer()

    def _flush_out_buffer(self) -> None:
        """Ship the buffered records and the watermark marks among them
        as one batch per channel."""
        buffer, marks = self._out_buffer, self._out_marks
        if not buffer and not marks:
            return
        self._out_buffer = type(buffer)()
        self._out_marks = []
        if self._suffix_fn is not None:
            buffer, marks = self._apply_suffix(buffer, marks)
        self._emit_run(buffer, marks)

    def _apply_suffix(self, run: ColumnRun, marks: List[Mark]
                      ) -> Tuple[ColumnRun, List[Mark]]:
        """Source task: the buffer holds what the operator in front of
        the fused suffix collected.  The suffix takes the records
        between two marks at a time, so it sees exactly the records
        between two watermarks, and each mark moves to where the
        suffix's output puts it."""
        out, placed = ColumnRun(), []
        for start, stop, watermark in segments(len(run), marks):
            if stop > start:
                out.extend(*self._run_fused(
                    "column_kernel", self._suffix_fn, run.values[start:stop],
                    run.timestamps[start:stop], run.keys[start:stop]))
            if watermark is not None:
                placed.append((len(out), watermark))
        return out, placed

    def _emit_run(self, run: Any, marks: Sequence[Mark] = ()) -> None:
        """The one way a run leaves the task, flushed rows and columns
        (which become rows at the edges, each building its own) alike,
        with the watermarks among them."""
        if not run and not marks:
            return
        self._records_out.inc(len(run))
        if not isinstance(run, list):
            for edge in self.output_edges:
                edge.emit_columnar(run, marks)
        elif len(run) == 1 and not marks:
            for edge in self.output_edges:
                edge.emit_record(run[0])
        else:
            for edge in self.output_edges:
                edge.emit_batch(run, marks)

    def _watermark_from_chain(self, position: int) -> Callable[[int], None]:
        """Watermarks generated *inside* the chain (timestamp assigners)
        advance the remaining chain suffix, then leave the task."""
        def emit(timestamp: int) -> None:
            self._advance_chain_watermark(timestamp, start=position + 1)
            self._forward_watermark(timestamp)
        return emit

    # -- stepping -----------------------------------------------------------

    @property
    def has_output_capacity(self) -> bool:
        # Hot path of the scheduler's runnable scan: a flat walk over
        # cached integer occupancies, no edge indirection.
        for channel in self._output_channels:
            if channel.size >= channel.capacity:
                return False
        return True

    @property
    def is_runnable(self) -> bool:
        if self.finished or self.failed is not None:
            return False
        if not self.has_output_capacity:
            return False
        if self._is_source:
            return True
        return (any(channel.readable for channel, _ in self.inputs)
                or self._all_inputs_finished())

    def _all_inputs_finished(self) -> bool:
        return bool(self.inputs) and all(channel.finished
                                         for channel, _ in self.inputs)

    def step(self) -> bool:
        """Do a bounded amount of work; returns True if progress was made."""
        if self.finished or self.failed is not None:
            return False
        try:
            if self._is_source:
                progressed = self._step_source()
            else:
                progressed = self._step_processing()
            # Records and watermarks must not languish in the output
            # buffer across scheduler rounds: a task may not be stepped
            # again for a while (backpressure), and latency would become
            # unbounded.
            self._flush_out_buffer()
            return progressed
        except BaseException as exc:  # surfaces in Engine.execute
            self.failed = exc
            raise

    def _step_source(self) -> bool:
        if self.pending_checkpoint is not None:
            checkpoint_id = self.pending_checkpoint
            self.pending_checkpoint = None
            self._snapshot_and_ack(checkpoint_id)
            self._broadcast(CheckpointBarrier(checkpoint_id))
            # The cut is taken; the step's record budget is still spent
            # below.  Returning here would starve the source for good
            # once a checkpoint is triggered every scheduler round
            # (``checkpoint_interval_ms=1``, the round's tick).
        operator = self.chain[0].operator
        # Sources may scale the per-step record budget: a hybrid source
        # drains its bounded history prefix at an elevated burst so the
        # data-at-rest phase runs through the batched path at batch
        # cadence, then drops back to 1 at the cutover.
        more = operator.emit_batch(
            self._source_ctx,
            self.elements_per_step * operator.source_burst_factor)
        if not more:
            self._finish_task()
        return True

    def _step_processing(self) -> bool:
        # The step budget is denominated in *records* in both modes: a
        # batch of n records spends n budget, so ``elements_per_step``
        # means the same amount of work whether or not batching is on.
        # A batch larger than the remaining budget is split: the head is
        # processed now and the tail goes back to the channel front, so
        # the throttle is record-exact and backpressure builds at the
        # same rate as in scalar execution.
        progressed = False
        budget = self.elements_per_step
        while budget > 0:
            element, channel_index = self._poll_fair()
            if element is None:
                break
            progressed = True
            if element.is_batch:
                element = self._take(element, budget,
                                     self.inputs[channel_index][0])
            budget -= len(element) if element.is_batch else 1
            self._dispatch_input(element, channel_index)
            if self.finished:
                return True
        if not progressed and self._all_inputs_finished() and not self.finished:
            self._finish_task()
            return True
        return progressed

    @staticmethod
    def _take(batch: Any, budget: int, channel: Channel) -> StreamElement:
        """What one poll takes of a polled batch.  A batch with watermark
        marks is unpacked into the elements it stands for -- runs of
        records and watermarks -- and all but the first go back to the
        front of ``channel``: so a watermark costs one poll and one unit
        of the step budget, as it did as an element of its own, and the
        fair poll interleaves a task's inputs as it did then.  A batch
        larger than ``budget`` is split there and its tail goes back
        too, keeping the budget record-exact; columns split without
        materialising rows."""
        if batch.marks:
            first, *rest = unpack(batch)
            for element in reversed(rest):
                channel.requeue_front(element)
            if not first.is_batch:
                return first
            batch = first
        if len(batch) > budget:
            channel.requeue_front(batch.slice(budget, len(batch)))
            batch = batch.slice(0, budget)
        return batch

    def _poll_fair(self) -> Tuple[Optional[StreamElement], int]:
        """Round-robin over readable input channels."""
        total = len(self.inputs)
        for offset in range(total):
            index = (self._next_input + offset) % total
            channel, _ = self.inputs[index]
            element = channel.poll()
            if element is not None:
                self._next_input = (index + 1) % total
                return element, index
        return None, -1

    def _dispatch_input(self, element: StreamElement, channel_index: int) -> None:
        if element.is_record:
            self._records_in.inc()
            # each=True, positionally: this line runs once per record.
            self._ingest((element,), self.inputs[channel_index][1], True)
        elif element.is_columnar:
            if len(element):
                self._records_in.inc(len(element))
                self._process_columnar(element, self.inputs[channel_index][1])
        elif element.is_batch:
            records = element.records
            if records:  # chaos drop may have emptied the batch in place
                self._records_in.inc(len(records))
                self._ingest(records, self.inputs[channel_index][1])
        elif element.is_watermark:
            self._on_channel_watermark(element.timestamp, channel_index)
        elif element.is_barrier:
            self._on_barrier(element, channel_index)
        elif element.is_end:
            self._on_channel_end(channel_index)

    def _needs_record_loop(self, input_index: int) -> bool:
        """Whether input must enter the chain one record at a time: a
        second input, or pending chaos poison."""
        return input_index != 0 or self.poison_next_records > 0

    def _ingest(self, records: Sequence[Record], input_index: int,
                each: bool = False) -> None:
        """The one way input data enters the chain (``records_in`` is
        already counted); a scalar ``Record`` arrives as a run of one.

        A run of input-0 records goes through the fused stateless prefix
        compiled by :func:`~repro.plan.chaining.compile_batch_chain` --
        one call per operator per run -- and leaves it through
        :meth:`_exit_prefix`; without one, the head operator's
        ``process_batch`` (vectorised or the per-record default) takes
        the run.  Anything that needs per-record bookkeeping
        (:meth:`_needs_record_loop`) cannot be taken whole and enters
        through the record-by-record loop below, which is semantically
        identical by construction and has the scalar-mode poison
        semantics.  ``each`` sends a run straight there: a scalar
        ``Record``, which has nothing to amortise.  Whatever raises
        fails the task, for the engine's one failure boundary.
        """
        if not each and not self._needs_record_loop(input_index):
            fused = self._fused_fn
            if fused is None:
                self.chain[0].operator.process_batch(records)
            else:
                self._exit_prefix(self._run_fused("fused_batch", fused,
                                                  records),
                                  self._fused_prefix)
            return
        head = self.chain[0]
        for record in records:
            if self.poison_next_records > 0:
                # Chaos-injected poison: consume the flag *before*
                # raising so a supervised restart replays the record
                # cleanly.
                self.poison_next_records -= 1
                from repro.runtime.faults import PoisonPill
                raise PoisonPill("chaos-injected poison in %s#%d"
                                 % (self.vertex_name, self.subtask_index))
            head.backend.set_current_key(record.key)
            head.ctx.current_timestamp = record.timestamp
            if input_index == 0:
                head.operator.process(record)
            else:
                head.operator.process2(record)

    def _exit_prefix(self, survivors: List[Record], prefix: int) -> None:
        """The one way out of a fused prefix, row function or column
        kernel alike: into the output buffer when the prefix covered the
        whole chain, else into the first unfused operator."""
        if not survivors:
            return
        if prefix == len(self.chain):
            self._buffer_output_batch(survivors)
        else:
            self.chain[prefix].operator.process_batch(survivors)

    def _run_fused(self, span: str, fused: Callable[..., Any],
                   *columns: List[Any]) -> Any:
        """Call a fused function (row prefix, source suffix or column
        kernel) on its input lists, under a tracer span when tracing."""
        tracer = self._tracer
        if tracer is None:
            return fused(*columns)
        with tracer.span(span, task=self.vertex_name,
                         subtask=self.subtask_index,
                         records=len(columns[0])):
            return fused(*columns)

    def _process_columnar(self, batch: StreamElement,
                          input_index: int) -> None:
        """Run a columnar batch through the chain: try the fused column
        kernel compiled by :func:`~repro.plan.chaining.compile_column_chain`,
        else give the batch's materialised ``records`` to :meth:`_ingest`.

        The kernel transforms the parallel column lists directly -- no
        ``Record`` exists until its survivors are materialised for
        :meth:`_exit_prefix` or at an output edge, and none at all when
        every edge routes whole batches.  No kernel at the head, or input
        that must enter record by record, is counted as a columnar
        fallback.
        """
        kernel = self._column_kernel
        prefix = self._kernel_prefix
        if kernel is None or self._needs_record_loop(input_index):
            self._columnar_fallbacks.inc()
            self._ingest(batch.records, input_index)
            return
        self._columnar_batches.inc()
        values, timestamps, keys = self._run_fused(
            "column_kernel", kernel, batch.value_list(),
            batch.timestamp_list(), batch.key_list())
        if not values:
            return
        if prefix < len(self.chain):
            self._exit_prefix(list(map(Record, values, timestamps, keys)),
                              prefix)
            return
        # Channel order: anything still buffered (rows of earlier
        # fallback batches or scalar records, watermark marks) must
        # leave before this run.
        self._flush_out_buffer()
        run = ColumnRun(values, timestamps, keys)
        # A ColumnarBatch (if the values admit a schema) only where
        # every edge forwards it whole.
        if all(edge._whole is not None for edge in self.output_edges):
            from repro.runtime.columnar import columnar_from_lists
            run = columnar_from_lists(values, timestamps, keys) or run
        self._emit_run(run)

    # -- watermarks ----------------------------------------------------------

    def _on_channel_watermark(self, timestamp: int, channel_index: int) -> None:
        if timestamp > self._channel_watermarks[channel_index]:
            self._channel_watermarks[channel_index] = timestamp
        self._recompute_combined_watermark()

    def _recompute_combined_watermark(self) -> None:
        live = [wm if not self.inputs[index][0].finished else MAX_TIMESTAMP
                for index, wm in self._channel_watermarks.items()]
        combined = min(live) if live else MAX_TIMESTAMP
        if combined > self._combined_watermark:
            self._combined_watermark = combined
            self._watermark_gauge.set(min(combined, MAX_TIMESTAMP))
            self._advance_chain_watermark(combined, start=0)
            self._forward_watermark(combined)

    def _advance_chain_watermark(self, timestamp: int, start: int) -> None:
        """Fire due event-time timers and notify ``on_watermark`` for the
        chain suffix beginning at ``start``."""
        for chained in self.chain[start:]:
            self._fire_due_timers(chained, timestamp, event_time=True)
            chained.operator.on_watermark(timestamp)

    def _fire_due_timers(self, chained: _ChainedOperator, up_to: int,
                         event_time: bool) -> None:
        """The one timer drain: event time on a watermark, processing
        time on a clock advance, both at end of input."""
        queue = (chained.timers.event_time if event_time
                 else chained.timers.processing_time)
        # Loop: timer callbacks may register new timers that are also due.
        while True:
            due = queue.pop_due(up_to)
            if not due:
                return
            callback = (chained.operator.on_event_timer if event_time
                        else chained.operator.on_processing_timer)
            for timestamp, key, namespace in due:
                chained.backend.set_current_key(key)
                chained.ctx.current_timestamp = timestamp
                callback(timestamp, key, namespace)

    def _forward_watermark(self, timestamp: int) -> None:
        """Send a watermark downstream: in batched execution as a mark
        at its position in the output buffer, leaving with the next
        flush; otherwise as a :class:`Watermark` element."""
        if timestamp <= self._emitted_watermark:
            return
        self._emitted_watermark = timestamp
        if self._batching:
            self._out_marks.append((len(self._out_buffer), timestamp))
        else:
            self._broadcast(Watermark(timestamp))

    def on_processing_time(self, now: int) -> None:
        """Called by the scheduler whenever the simulated clock advances."""
        if self.finished or self.failed is not None:
            return
        for chained in self.chain:
            self._fire_due_timers(chained, now, event_time=False)

    # -- checkpoints -----------------------------------------------------------

    def _on_barrier(self, barrier: CheckpointBarrier, channel_index: int) -> None:
        checkpoint_id = barrier.checkpoint_id
        if checkpoint_id < self._min_checkpoint_id:
            return  # stale barrier of a coordinator-aborted checkpoint
        if (self._aligning_checkpoint is not None
                and checkpoint_id > self._aligning_checkpoint):
            # A newer checkpoint's barrier overtook the one we were
            # aligning on (the old one was aborted upstream): abandon the
            # stale alignment so its blocked channels cannot deadlock us.
            self.abort_checkpoint(self._aligning_checkpoint)
        if self._aligning_checkpoint is None:
            self._aligning_checkpoint = checkpoint_id
            self._aligned_channels = set()
        if checkpoint_id != self._aligning_checkpoint:
            return  # late barrier of an aborted checkpoint: drop
        channel, _ = self.inputs[channel_index]
        channel.blocked = True
        self._aligned_channels.add(channel_index)
        self._maybe_complete_alignment()

    def _maybe_complete_alignment(self) -> None:
        """Snapshot and ack once barriers covered every *live* channel.

        Called on barrier arrival and -- crucially -- when a channel
        finishes mid-alignment: a channel delivering EOS after alignment
        began will never deliver its barrier, and without this re-check
        the task would hold its blocked channels forever.
        """
        if self._aligning_checkpoint is None:
            return
        live = {index for index, (ch, _) in enumerate(self.inputs)
                if not ch.finished}
        if not live.issubset(self._aligned_channels):
            return
        checkpoint_id = self._aligning_checkpoint
        self._snapshot_and_ack(checkpoint_id)
        self._broadcast(CheckpointBarrier(checkpoint_id))
        for index in self._aligned_channels:
            self.inputs[index][0].blocked = False
        self._aligning_checkpoint = None
        self._aligned_channels = set()

    def abort_checkpoint(self, checkpoint_id: int) -> None:
        """Coordinator notification: ``checkpoint_id`` was aborted.
        Unblock any channels held by its alignment and ignore its
        barriers from now on."""
        self._min_checkpoint_id = max(self._min_checkpoint_id,
                                      checkpoint_id + 1)
        if self.pending_checkpoint == checkpoint_id:
            self.pending_checkpoint = None
        if self._aligning_checkpoint == checkpoint_id:
            for index in self._aligned_channels:
                self.inputs[index][0].blocked = False
            self._aligning_checkpoint = None
            self._aligned_channels = set()

    def notify_checkpoint_complete(self, checkpoint_id: int) -> None:
        """Coordinator notification: ``checkpoint_id`` is durably
        complete.  Transactional sinks commit their pre-committed
        transactions on this signal."""
        for chained in self.chain:
            chained.operator.notify_checkpoint_complete(checkpoint_id)

    def _snapshot_and_ack(self, checkpoint_id: int) -> None:
        # Pre-snapshot hook: transactional sinks rotate (pre-commit)
        # their transaction here, at the exact barrier cut.
        for chained in self.chain:
            chained.operator.on_checkpoint(checkpoint_id)
        partitioners = {}
        for i, edge in enumerate(self.output_edges):
            state = edge.partitioner.snapshot_state()
            if state is not None:
                partitioners[str(i)] = state
        # Live views: TaskSnapshot serialises them before any operator
        # runs again, which is what keeps the checkpoint apart from them.
        parts = ({str(i): chained.backend.snapshot()
                  for i, chained in enumerate(self.chain)},
                 {str(i): chained.operator.snapshot_state()
                  for i, chained in enumerate(self.chain)},
                 {str(i): chained.timers.snapshot()
                  for i, chained in enumerate(self.chain)},
                 partitioners)
        try:
            snapshot = TaskSnapshot(self.subtask_id, *parts)
        except _UNPICKLABLE as exc:
            raise pickle.PicklingError(
                "checkpoint %d: %s does not pickle: %s"
                % (checkpoint_id, self._unpicklable_part(parts), exc)
            ) from exc
        if self.checkpoint_ack is not None:
            self.checkpoint_ack(checkpoint_id, snapshot)

    def _unpicklable_part(self, parts: Tuple[Dict[str, Any], ...]) -> str:
        """Names the first part of a failed snapshot that does not
        pickle, by subtask and chain position."""
        for i, chained in enumerate(self.chain):
            for what, part in zip(("keyed state", "operator state",
                                   "timers"), parts):
                try:
                    pickle.dumps(part[str(i)], pickle.HIGHEST_PROTOCOL)
                except _UNPICKLABLE:
                    return ("the %s of subtask %s#%d at chain position %d "
                            "(operator %r)" % (what, *self.subtask_id, i,
                                               chained.operator.name))
        return ("the output partitioner state of subtask %s#%d"
                % self.subtask_id)

    def restore(self, snapshot: TaskSnapshot) -> None:
        """Reset this subtask to the checkpointed state: one decode,
        whose objects the backends, operators and partitioners own."""
        state = snapshot.decode()
        for i, chained in enumerate(self.chain):
            chained.backend.restore(state.keyed_state.get(str(i), {}))
            operator_state = state.operator_state.get(str(i))
            if operator_state is not None:
                chained.operator.restore_state(operator_state)
            chained.timers.restore(state.timers.get(str(i), {}))
        for i, edge in enumerate(self.output_edges):
            partitioner_state = state.partitioners.get(str(i))
            if partitioner_state is not None:
                edge.partitioner.restore_state(partitioner_state)

    # -- end of input -------------------------------------------------------

    def _on_channel_end(self, channel_index: int) -> None:
        channel, _ = self.inputs[channel_index]
        channel.finished = True
        self._channel_watermarks[channel_index] = MAX_TIMESTAMP
        self._recompute_combined_watermark()
        # A channel that finished mid-alignment will never deliver its
        # barrier; re-check so the alignment can complete without it.
        self._maybe_complete_alignment()
        if self._all_inputs_finished():
            self._finish_task()

    def _finish_task(self) -> None:
        if self.finished:
            return
        # Make sure event time is fully flushed before finishing.
        if self._combined_watermark < MAX_TIMESTAMP:
            self._combined_watermark = MAX_TIMESTAMP
            self._advance_chain_watermark(MAX_TIMESTAMP, start=0)
        self._forward_watermark(MAX_TIMESTAMP)
        # Bounded input also flushes pending processing-time timers, so
        # processing-time windows do not silently drop their tail.
        for chained in self.chain:
            self._fire_due_timers(chained, MAX_TIMESTAMP, event_time=False)
        for chained in self.chain:
            chained.ctx.current_timestamp = MAX_TIMESTAMP
            chained.operator.finish()
        self._broadcast(END_OF_STREAM)
        for chained in self.chain:
            chained.operator.close()
        self.finished = True

    def _broadcast(self, element: StreamElement) -> None:
        # Flush buffered records and marks *before* a barrier or end of
        # stream leaves: this is the single point that enforces the
        # batch-never-straddles-a-barrier invariant on the producer side.
        self._flush_out_buffer()
        for edge in self.output_edges:
            edge.broadcast(element)
