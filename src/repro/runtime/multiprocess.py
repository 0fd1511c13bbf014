"""Shared-nothing multiprocess execution backend.

Shards the subtask grid of a JobGraph across ``num_workers`` OS
processes.  Each worker runs the unmodified cooperative engine
(:class:`~repro.runtime.engine.Engine`) over the subtasks it owns
(ownership is ``subtask_index % num_workers``, so forward/chained edges
stay worker-local); records crossing worker boundaries travel as pickled
stream elements over POSIX pipes, hash-partitioned by the same
run-stable :func:`~repro.runtime.partition.hash_key` as in-process
exchanges -- which is exactly why that hash must not depend on
``PYTHONHASHSEED`` or object addresses.

Design notes:

* **fork only.**  Job graphs close over lambdas and bound methods that
  do not survive pickling, so workers are forked and inherit the graph
  (and, on recovery, the restore snapshots) by copy-on-write -- never
  serialised.
* **One pipe per ordered worker pair.**  A pipe has a single writer, so
  per-channel FIFO order is preserved end to end; elements are framed as
  ``(seq, channel ordinal, element)`` where ordinals are assigned by
  graph construction order -- identical in every worker by determinism
  of ``_build`` -- and ``seq`` numbers the pair's frames across the
  pipe and the shared-memory ring.
* **Flush-before-control is preserved**: barriers, watermarks and
  ``EndOfStream`` flow *in-band* through the same pipes as data (the
  task runtime already flushes its record buffer before broadcasting
  control elements), so alignment works unchanged across processes.
* **Backpressure** is modelled on the sender: an
  :class:`EgressChannel` reports itself full while its writer has more
  than a soft limit of unflushed bytes, which stalls the producing task
  through the ordinary ``has_output_capacity`` scan.  Writes are
  non-blocking so two workers saturating each other's pipes cannot
  deadlock.
* **The parent process holds the checkpoint coordinator** (the same
  :class:`~repro.state.checkpoint.CheckpointCoordinator` the cooperative
  engine ticks, here on the wall clock): its trigger / abort / notify
  messages are broadcast over the control pipes, and the workers -- who
  hold no coordinator and no store -- forward every ack (carrying the
  subtask snapshot) back.  On a worker failure the parent tears down
  the whole fleet and respawns it from the latest completed checkpoint
  -- shared-nothing recovery with fresh pipes, so no epoch filtering is
  needed.
* **Collect sinks commit into the parent's list**: each write (a
  commit or a restore's truncate) travels as control messages ``(bucket
  key, offset, rows)`` of at most ``_COLLECT_CHUNK_ROWS`` rows that the
  parent applies as ``del bucket[offset:]; bucket.extend(rows)``, the
  file sink's idempotent truncate-then-append.
* **Callback sinks call back in the parent**: an ``add_sink(fn)``
  subtask buffers its rows and ships them, in chunks of the same size,
  at the end of every round and ahead of every checkpoint ack; the
  parent calls ``fn`` on each.  At-least-once, as on the cooperative
  backend: rows a failed attempt shipped stay delivered.
* **A worker's exception is the job's**: the parent raises the type the
  worker shipped, caused by a ``JobFailedError`` with its traceback.

* **Liveness** (:mod:`repro.runtime.watchdog`) is read from the
  kernel, not inferred from silence: a worker is dead when its control
  pipe hits EOF (or it reports ``failed``), hung when the kernel reports
  it stopped on a supervision tick, and busy -- never failed by the
  supervisor -- otherwise.  Workers send no heartbeats.
* **Faults** (:mod:`repro.runtime.faults`) fire in the worker owning
  their victim, which announces each one to the parent before carrying
  it out -- a crash as SIGKILL, a stall as SIGSTOP, against itself.  The
  parent's injector is the record of the job: a respawned fleet, forked
  from it, does not fire an event twice.  The parent corrupts
  checkpoints, whose store it owns.

Not supported (cooperative-backend-only): queryable state,
``cancel_hook``, and cross-backend determinism of *processing-time*
semantics (each worker advances its own simulated clock; event-time
pipelines are bit-equal as multisets).
"""

from __future__ import annotations

import os
import pickle
import selectors
import signal
import struct
import time
import traceback
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.connectors.sinks import CollectSink
from repro.observability import MetricGroup, sum_nested
from repro.runtime.channels import Channel, element_weight
from repro.runtime.columnar import (
    ColumnarCodecError,
    batch_to_columnar,
    decode_columnar,
    encode_columnar,
)
from repro.runtime.elements import RecordBatch, StreamElement
from repro.runtime.engine import (
    Engine,
    EngineConfig,
    JobFailedError,
    JobResult,
    JobStalledError,
    MAX_ROUNDS,
    channel_name,
    job_outcome,
    records_emitted,
)
from repro.runtime.faults import RESTARTING_KINDS, STALL
from repro.runtime.operators import ForEachSink
from repro.runtime.restart import grant_restart
from repro.runtime.shm import RingError, ShmRing, ShmRingReader, ShmRingWriter
from repro.runtime.task import Task
from repro.runtime.watchdog import WorkerWatchdog
from repro.state.checkpoint import (
    CheckpointCoordinator,
    SubtaskId,
    TaskSnapshot,
    restore_point,
    subtask_grid,
)

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL
_LEN = struct.Struct("<I")
_READ_CHUNK = 1 << 16
#: Unflushed bytes per egress writer beyond which the sending channels
#: report themselves full (sender-side backpressure).
_EGRESS_SOFT_LIMIT = 4 * 1024 * 1024
#: A worker that makes no progress for this long escalates a stall
#: instead of hanging the job (the cooperative engine counts idle
#: rounds; a worker must also account for time spent blocked on pipes).
_STALL_TIMEOUT_S = 60.0
_IDLE_WAIT_S = 0.02
#: A worker with shared-memory rings waits this long at first when idle,
#: doubling per idle wait in a row up to ``_IDLE_WAIT_S``: a ring has no
#: fd, so neither a peer publishing a frame nor a peer freeing a slot
#: wakes the selector, and waiting the full ``_IDLE_WAIT_S`` each time
#: would stall a batched exchange on every frame.
_RING_POLL_S = 0.001
#: Sanity cap on a frame's length prefix.  A garbled prefix otherwise
#: reads as "wait for gigabytes that will never arrive", which turns a
#: corrupted pipe into an undiagnosable hang instead of a FrameError.
_MAX_FRAME = 1 << 28
#: Rows per collect or callback-sink message, so a commit of the whole
#: output (checkpoints off) travels as many frames under ``_MAX_FRAME``,
#: not one over it.
_COLLECT_CHUNK_ROWS = 4096
#: How long the coordinator keeps trying to flush stop messages to a
#: failing fleet before giving up -- it must NOT block forever on a pipe
#: whose reader is SIGSTOP'd (the workers get killed right after).
_ERROR_FLUSH_S = 0.25
#: The supervisor's longest wait for a worker frame, and how often it
#: asks the kernel which workers are stopped (at most once per wait,
#: even when worker frames keep waking the loop).
_SUPERVISE_WAIT_S = 0.05
#: Slots per shared-memory ring (one ring per ordered worker pair); more
#: slots absorb burstier producers before ring backpressure stalls them.
EXCHANGE_RING_SLOTS = 32
#: Payload bytes per ring slot; a columnar frame larger than one slot
#: falls back to a pickled pipe frame (counted per edge in
#: ``job_report()``).
EXCHANGE_SLOT_BYTES = 64 * 1024


class _Stop(Exception):
    """Parent asked this worker to exit (failure elsewhere)."""


class FrameError(Exception):
    """A length-prefixed pipe frame could not be decoded: the peer died
    mid-write (truncated frame) or the bytes are garbage (corrupted
    length prefix, unpicklable payload).  The message names the worker
    pair so the supervisor's diagnosis points at the right pipe."""


# -- pipe framing -----------------------------------------------------------


class _FrameWriter:
    """Length-prefixed pickle frames over a non-blocking pipe fd.

    Writes never block: bytes the kernel will not take queue in a
    userspace buffer whose depth (``pending_bytes``) doubles as the
    backpressure signal.  A broken pipe (the reader died) is swallowed
    -- the supervisor learns about dead workers through its own control
    pipes, and a writer blowing up mid-teardown would mask the original
    failure.
    """

    def __init__(self, fd: int) -> None:
        os.set_blocking(fd, False)
        self.fd = fd
        self._buffer = bytearray()
        self.broken = False

    def send(self, message: Any) -> int:
        """Frame and enqueue one message; returns its payload size (the
        exchange accounting reads it)."""
        payload = pickle.dumps(message, _PICKLE_PROTOCOL)
        self._buffer += _LEN.pack(len(payload))
        self._buffer += payload
        self.flush()
        return len(payload)

    def flush(self) -> bool:
        """Push buffered bytes into the pipe; True when fully drained."""
        while self._buffer:
            if self.broken:
                self._buffer.clear()
                break
            try:
                written = os.write(self.fd, self._buffer)
            except BlockingIOError:
                return False
            except (BrokenPipeError, OSError):
                self.broken = True
                self._buffer.clear()
                break
            del self._buffer[:written]
        return True

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)

    def drain(self) -> None:
        """Blocking flush -- used at orderly shutdown, when losing the
        tail of the stream would lose data (EOS, the done payload)."""
        os.set_blocking(self.fd, True)
        try:
            self.flush()
        finally:
            try:
                os.set_blocking(self.fd, False)
            except OSError:
                pass

    def close(self) -> None:
        try:
            os.close(self.fd)
        except OSError:
            pass


class _FrameReader:
    """The receiving half: drains a non-blocking pipe and reassembles
    length-prefixed pickle frames.

    Corruption is loud: an insane length prefix, an unpicklable payload,
    or a partial frame left behind by a peer that died mid-write all
    raise :class:`FrameError` naming ``peer`` -- never silently block
    waiting for bytes that can no longer arrive.
    """

    def __init__(self, fd: int, peer: str = "pipe") -> None:
        os.set_blocking(fd, False)
        self.fd = fd
        self.peer = peer
        self._buffer = bytearray()
        self.eof = False
        self.corrupt = False

    def _fail(self, offset: int, detail: str) -> None:
        del self._buffer[:offset]
        self.corrupt = True
        raise FrameError("%s: %s" % (self.peer, detail))

    def read_available(self) -> List[Any]:
        while not self.eof:
            try:
                chunk = os.read(self.fd, _READ_CHUNK)
            except BlockingIOError:
                break
            except OSError:
                self.eof = True
                break
            if not chunk:
                self.eof = True
                break
            self._buffer += chunk
        messages: List[Any] = []
        buffer = self._buffer
        offset = 0
        while len(buffer) - offset >= _LEN.size:
            (length,) = _LEN.unpack_from(buffer, offset)
            if length > _MAX_FRAME:
                self._fail(offset,
                           "garbled frame (length prefix %d exceeds the "
                           "%d-byte cap)" % (length, _MAX_FRAME))
            if len(buffer) - offset - _LEN.size < length:
                break
            start = offset + _LEN.size
            try:
                message = pickle.loads(bytes(buffer[start:start + length]))
            except Exception as exc:
                self._fail(offset,
                           "garbled frame (%d-byte payload does not "
                           "unpickle: %r)" % (length, exc))
            messages.append(message)
            offset = start + length
        if self.eof and len(buffer) - offset > 0:
            # The writer is gone and the tail can never complete: a peer
            # died mid-write.  Blocking here forever was the old failure
            # mode; now the torn frame is a diagnosis.
            self._fail(offset,
                       "truncated frame (peer died leaving %d bytes of a "
                       "partial frame)" % (len(buffer) - offset))
        if offset:
            del buffer[:offset]
        return messages

    @property
    def exhausted(self) -> bool:
        return self.eof and not self._buffer

    def close(self) -> None:
        try:
            os.close(self.fd)
        except OSError:
            pass


# -- the exchange writer ----------------------------------------------------


def _exchange_stats() -> Dict[str, int]:
    return {
        "shm_frames": 0,        # columnar frames published to the ring
        "shm_bytes": 0,
        "shm_records": 0,
        "pipe_frames": 0,       # everything framed over the pipe
        "pipe_bytes": 0,
        "pipe_records": 0,      # data records inside pipe frames
        "control_frames": 0,    # watermarks/barriers/EOS (always pipe)
        "pickle_fallbacks": 0,  # data batches that had to take the pipe
        "fallback_unschematizable": 0,
        "fallback_oversize": 0,
        "fallback_ring_full": 0,
    }


class ExchangeWriter:
    """One worker's sending side of the exchange toward one peer.

    In ``"shm"`` mode a record batch is converted to columnar layout
    (its schema inferred from the batch), encoded as one raw-bytes frame
    (the watermark marks it carries included) and published to the
    pair's ring; everything else -- control elements, scalar records,
    batches of marks only, unschematizable/oversize batches, batches
    hitting a full ring -- travels as a ``(seq, ordinal, element)``
    pickle frame over the pipe.  The per-pair sequence number stamped on
    *every* frame is what lets the receiver stitch the two transports
    back into the exact per-channel FIFO order.  In ``"pipe"`` mode
    (``ring is None``) every frame takes the pipe, in the same shape.
    """

    __slots__ = ("pipe", "ring", "stats", "_seq")

    def __init__(self, pipe: _FrameWriter,
                 ring: Optional[ShmRingWriter] = None) -> None:
        self.pipe = pipe
        self.ring = ring
        self.stats = _exchange_stats()
        self._seq = 0

    def send(self, ordinal: int, element: StreamElement) -> None:
        stats = self.stats
        ring = self.ring
        seq = self._seq
        self._seq += 1
        if ring is not None and element.is_batch and len(element):
            batch = (element if element.is_columnar
                     else batch_to_columnar(element.records))
            if batch is None:
                stats["fallback_unschematizable"] += 1
            else:
                batch.marks = element.marks
                payload = encode_columnar(batch)
                if len(payload) > ring.payload_capacity:
                    stats["fallback_oversize"] += 1
                elif ring.try_write(seq, ordinal, len(batch), payload):
                    stats["shm_frames"] += 1
                    stats["shm_bytes"] += len(payload)
                    stats["shm_records"] += len(batch)
                    return
                else:
                    stats["fallback_ring_full"] += 1
            stats["pickle_fallbacks"] += 1
            if element.is_columnar:
                # memoryview columns defeat pickle; ship the row twin.
                element = RecordBatch(list(element.records), element.marks)
        if element.is_batch:
            stats["pipe_records"] += len(element)
        elif element.is_record:
            stats["pipe_records"] += 1
        else:
            stats["control_frames"] += 1
        size = self.pipe.send((seq, ordinal, element))
        stats["pipe_frames"] += 1
        stats["pipe_bytes"] += size

    def occupancy_records(self) -> int:
        return self.ring.occupancy_records() if self.ring is not None else 0


# -- the exchange channel ---------------------------------------------------


class EgressChannel(Channel):
    """The sending half of a cross-worker exchange.

    Looks like an ordinary :class:`Channel` to the task runtime --
    ``push`` accepts any stream element, ``size``/``capacity`` drive the
    scheduler's backpressure scan -- but elements leave the process
    through the pair's :class:`ExchangeWriter` instead of queueing.
    Occupancy stays record-denominated: the channel reports the records
    sitting unconsumed in the pair's shm ring, topped up to ``capacity``
    while the pipe side is congested, so one slow consumer throttles
    exactly the producers feeding it in the same units as an in-process
    channel.
    """

    __slots__ = ("ordinal", "exchange")

    def __init__(self, name: str, capacity: int, exchange: ExchangeWriter,
                 ordinal: int) -> None:
        super().__init__(name, capacity)
        self.ordinal = ordinal
        self.exchange = exchange

    def push(self, element: StreamElement) -> None:
        self.pushed += element_weight(element)
        self.exchange.send(self.ordinal, element)
        self.update_pressure()

    def update_pressure(self) -> None:
        size = self.exchange.occupancy_records()
        if self.exchange.pipe.pending_bytes > _EGRESS_SOFT_LIMIT:
            size = max(size, self.capacity)
        self.size = size


# -- the per-worker engine --------------------------------------------------


class ShardEngine(Engine):
    """The cooperative engine over one worker's shard of the grid.

    Built from the *full* job graph so channel ordinals and partitioner
    fan-out are identical everywhere, then foreign subtasks are
    discarded before round 0 deploys the rest (side-effecting operators
    only ever open on their owning worker).  Checkpoint coordination is
    inverted: this engine has no coordinator and no checkpoint store; it
    carries out the parent coordinator's messages and forwards every ack
    to it over the control pipe.
    """

    def __init__(self, job_graph: Any, config: EngineConfig, worker_id: int,
                 num_workers: int, data_writers: Dict[int, ExchangeWriter],
                 control: _FrameWriter,
                 restore: Dict[SubtaskId, TaskSnapshot],
                 sealed_checkpoints: int) -> None:
        self.worker_id = worker_id
        self.num_workers = num_workers
        self._data_writers = data_writers
        self._control = control
        #: Per-source seq-merge state: the next sequence number expected
        #: from that worker, and frames that arrived ahead of it on the
        #: other transport, keyed by seq.
        self._merge_next: Dict[int, int] = {}
        self._merge_pending: Dict[int, Dict[int, Tuple[int, Any]]] = {}
        super().__init__(job_graph, config, restore)
        self.sealed_checkpoints = sealed_checkpoints  # the job's, so far

    def _owns(self, task: Task) -> bool:
        return task.subtask_index % self.num_workers == self.worker_id

    # -- construction overrides -------------------------------------------

    def _build(self) -> None:
        self.egress: List[EgressChannel] = []
        #: channel ordinal -> local ingress channel (cross-worker edges in).
        self.ingress: Dict[int, Channel] = {}
        #: source worker -> its ingress channels here (flow-control scan).
        self.ingress_by_source: Dict[int, List[Channel]] = {}
        self._channel_ordinal = 0
        #: ``(vertex_id, chain_position)`` -> rows of the callback sink
        #: there, waiting for :meth:`ship_sink_rows`.
        self._sink_rows: Dict[Tuple[int, int], List[Any]] = {}
        super()._build()
        self.tasks = [task for task in self.tasks if self._owns(task)]
        for task in self.tasks:
            for position, chained in enumerate(task.chain):
                operator = chained.operator
                key = (task.vertex_id, position)
                # The caller's list and callback live in the parent.
                if isinstance(operator, CollectSink):
                    operator._sink.forward = partial(self.drain_collect, key)
                elif isinstance(operator, ForEachSink):
                    operator._fn = self._sink_rows.setdefault(key, []).append

    def _create_channel(self, edge: Any, up: Task, down: Task) -> Channel:
        ordinal = self._channel_ordinal
        self._channel_ordinal += 1
        name = channel_name(up, down)
        if self._owns(down):
            channel = Channel(name, capacity=self.config.channel_capacity)
            down.add_input(channel, edge.target_input)
            if not self._owns(up):
                self.ingress[ordinal] = channel
                source = up.subtask_index % self.num_workers
                self.ingress_by_source.setdefault(source, []).append(channel)
            return channel
        if self._owns(up):
            channel = EgressChannel(
                name, self.config.channel_capacity,
                self._data_writers[down.subtask_index % self.num_workers],
                ordinal)
            self.egress.append(channel)
            return channel
        # Neither endpoint is local: a placeholder so ordinals and edge
        # shapes stay aligned; ``_build`` discards both endpoint tasks.
        return Channel(name, capacity=self.config.channel_capacity)

    # -- checkpoint inversion ----------------------------------------------

    def _attach_coordinator(self) -> None:
        # The parent coordinates and owns the store.  A worker opening
        # the durable store would wipe the very checkpoints a respawned
        # fleet is restoring from.
        self.coordinator = None
        self.checkpoint_store = None

    def _acknowledge_checkpoint(self, checkpoint_id: int,
                                snapshot: TaskSnapshot) -> None:
        self.ship_sink_rows()  # what the snapshot counts as written
        self._control.send(("ack", checkpoint_id, snapshot))

    def _handle_failure(self, exc: BaseException) -> None:
        # No in-worker supervision: every failure tears down the shard
        # and escalates to the parent, which owns the restart strategy
        # and the checkpoint store.
        self._failures_metric.inc()
        raise exc

    def _fault_fired(self, index: int, event: Any, victim: Any) -> None:
        # Announce first: the parent records the event for the whole job,
        # so a respawned fleet does not fire it again.  Then a crash is a
        # real one, a stall a hung process.
        self._control.send(("fault", index))
        if event.kind in RESTARTING_KINDS["multiprocess"]:
            self._control.drain()
            os.kill(os.getpid(), signal.SIGSTOP if event.kind == STALL
                    else signal.SIGKILL)

    # -- the shard loop -----------------------------------------------------

    def handle_control(self, message: Tuple[Any, ...]) -> None:
        if message[0] == "stop":
            raise _Stop()
        self._dispatch_checkpoint(*message)  # trigger / notify / abort

    def _over_budget(self, source: int) -> bool:
        """Receiver-side flow control: whether the channels ``source``
        feeds already hold several capacities' worth of records."""
        channels = self.ingress_by_source.get(source, ())
        return (sum(ch.size for ch in channels)
                > 4 * sum(ch.capacity for ch in channels))

    def pump_ingress(self, readers: Dict[int, _FrameReader],
                     ring_readers: Optional[Dict[int, ShmRingReader]] = None
                     ) -> bool:
        """Move exchange frames into local ingress channels.

        A source is skipped while the channels it feeds hold several
        capacities' worth of records -- receiver-side flow control so a
        fast sender cannot balloon this worker's queues (the sender's
        own soft limit then backpressures it).  The margin is generous
        because barrier alignment legitimately buffers past capacity.

        Every frame carries the sender's per-pair sequence number.  In
        ``"shm"`` mode a source's frames arrive over two transports
        (ring for columnar data, pipe for everything else) and are
        merged back into sequence order before delivery so each channel
        sees the exact FIFO order the sender emitted; without a ring
        there is nothing to add to the pipe's frames and the merge
        passes them through.
        """
        moved = False
        for source, reader in readers.items():
            if self._over_budget(source):
                continue
            pending = self._merge_pending.setdefault(source, {})
            for seq, ordinal, element in reader.read_available():
                pending[seq] = (ordinal, element)
            ring = ring_readers.get(source) if ring_readers else None
            if ring is not None:
                try:
                    ring_frames = ring.read_available()
                except RingError as exc:
                    raise FrameError(str(exc)) from exc
                for seq, ordinal, records, payload in ring_frames:
                    try:
                        element = decode_columnar(payload)
                    except ColumnarCodecError as exc:
                        raise FrameError(
                            "%s: garbled columnar frame (seq %d, ordinal "
                            "%d): %s" % (ring.peer, seq, ordinal, exc)
                        ) from exc
                    pending[seq] = (ordinal, element)
            next_seq = self._merge_next.get(source, 0)
            while next_seq in pending:
                ordinal, element = pending.pop(next_seq)
                next_seq += 1
                self.ingress[ordinal].push(element)
                moved = True
            self._merge_next[source] = next_seq
        return moved

    def flush_egress(self) -> None:
        for exchange in self._data_writers.values():
            exchange.pipe.flush()
        for channel in self.egress:
            channel.update_pressure()

    def drain_collect(self, key: Tuple[int, int], offset: int,
                      rows: List[Any]) -> None:
        """Ship one write of the collect sink at ``key`` to the parent at
        once, ahead of any checkpoint ack that counts it (one pipe), in
        chunks of ``_COLLECT_CHUNK_ROWS``: each chunk is a write of its
        own at its own offset, so applied in order they are the write."""
        for start in range(0, max(len(rows), 1), _COLLECT_CHUNK_ROWS):
            self._control.send(("collect", key, offset + start,
                                rows[start:start + _COLLECT_CHUNK_ROWS]))

    def ship_sink_rows(self) -> None:
        """Send the callback sinks' buffered rows to the parent, which
        calls the callbacks, in chunks of ``_COLLECT_CHUNK_ROWS``."""
        for key, rows in self._sink_rows.items():
            for start in range(0, len(rows), _COLLECT_CHUNK_ROWS):
                self._control.send(
                    ("sink", key, rows[start:start + _COLLECT_CHUNK_ROWS]))
            rows.clear()

    def run(self, readers: Dict[int, _FrameReader],
            control_in: _FrameReader,
            ring_readers: Optional[Dict[int, ShmRingReader]] = None
            ) -> Dict[str, Any]:
        """Drive the shard to completion; returns the done payload."""
        config = self.config
        control = self._control
        reported_finished: set = set()
        rounds = 0
        idle_waits = 0
        last_progress = time.monotonic()
        while not all(task.finished for task in self.tasks):
            if rounds >= MAX_ROUNDS:
                raise JobStalledError(
                    "worker %d exceeded %d rounds; unfinished: %r"
                    % (self.worker_id, MAX_ROUNDS,
                       [t for t in self.tasks if not t.finished]))
            for message in control_in.read_available():
                self.handle_control(message)
            if control_in.exhausted:
                raise _Stop()  # the parent died; do not run on orphaned
            moved = self.pump_ingress(readers, ring_readers)
            progressed = self._run_round(rounds, moved=moved)
            rounds += 1
            self.ship_sink_rows()
            self.flush_egress()
            for task in self.tasks:
                if task.finished and task.subtask_id not in reported_finished:
                    reported_finished.add(task.subtask_id)
                    control.send(("task_finished", task.subtask_id))
            control.flush()
            if progressed:
                last_progress = time.monotonic()
                idle_waits = 0
                continue
            if time.monotonic() - last_progress > _STALL_TIMEOUT_S:
                raise JobStalledError(
                    "worker %d made no progress for %.0fs; unfinished: %r"
                    % (self.worker_id, _STALL_TIMEOUT_S,
                       [t for t in self.tasks if not t.finished]))
            self._idle_wait(readers, control_in, ring_readers, idle_waits)
            idle_waits += 1

        # Orderly completion: every EOS and trailing record must reach
        # its peer before the fds close.
        for exchange in self._data_writers.values():
            exchange.pipe.drain()
        payload = self._done_payload(rounds)
        payload.update(
            worker=self.worker_id,
            exchange={dst: dict(exchange.stats)
                      for dst, exchange in self._data_writers.items()})
        return payload

    def _idle_wait(self, readers: Dict[int, _FrameReader],
                   control_in: _FrameReader,
                   ring_readers: Optional[Dict[int, ShmRingReader]] = None,
                   idle_waits: int = 0) -> None:
        """Block on the pipes instead of spinning: wake on inbound data,
        a control message, or a congested writer emptying.  Rings have no
        pollable fd; a ring holding data the flow-control budget would
        accept is treated as an immediate wakeup, and with rings the wait
        is the ``idle_waits``-th step of the ``_RING_POLL_S`` backoff."""
        if ring_readers:
            for source, ring in ring_readers.items():
                # Data this worker is over budget for can wait: blocking
                # below is then the correct thing to do.
                if ring.has_data and not self._over_budget(source):
                    return
        selector = selectors.DefaultSelector()
        try:
            selector.register(control_in.fd, selectors.EVENT_READ)
            for reader in readers.values():
                if not reader.eof:
                    selector.register(reader.fd, selectors.EVENT_READ)
            for exchange in self._data_writers.values():
                pipe = exchange.pipe
                if pipe.pending_bytes and not pipe.broken:
                    selector.register(pipe.fd, selectors.EVENT_WRITE)
            timeout = _IDLE_WAIT_S
            if ring_readers:
                timeout = min(timeout,
                              _RING_POLL_S * (1 << min(idle_waits, 5)))
            selector.select(timeout)
        finally:
            selector.close()


def _is_stopped(pid: int) -> bool:
    """Whether the kernel reports ``pid`` stopped (SIGSTOP'd: hung until
    continued).  ``WNOWAIT`` leaves the state -- and any exit status,
    which ``multiprocessing`` reaps -- in place; a child that is gone
    is not stopped (its death is the control pipe's EOF to report)."""
    try:
        return os.waitid(os.P_PID, pid, os.WSTOPPED | os.WNOHANG
                         | os.WNOWAIT) is not None
    except ChildProcessError:
        return False


# -- worker process entry ---------------------------------------------------


def _worker_main(worker_id: int, num_workers: int, job_graph: Any,
                 config: EngineConfig,
                 data_fds: Dict[Tuple[int, int], Tuple[int, int]],
                 control_fds: Dict[int, Tuple[int, int, int, int]],
                 restore: Dict[SubtaskId, TaskSnapshot],
                 rings: Optional[Dict[Tuple[int, int], ShmRing]],
                 sealed_checkpoints: int) -> None:
    # Keep only this worker's pipe ends; closing the rest is what gives
    # every pipe exactly one writer and one reader (EOF semantics).
    writers: Dict[int, _FrameWriter] = {}
    readers: Dict[int, _FrameReader] = {}
    for (src, dst), (read_fd, write_fd) in data_fds.items():
        if src == worker_id:
            os.close(read_fd)
            writers[dst] = _FrameWriter(write_fd)
        elif dst == worker_id:
            os.close(write_fd)
            readers[src] = _FrameReader(
                read_fd, peer="data pipe worker %d -> worker %d"
                % (src, worker_id))
        else:
            os.close(read_fd)
            os.close(write_fd)
    # Same ownership split for the fork-inherited rings: keep the two
    # ends this worker drives, unmap every other pair's view.
    ring_writers: Dict[int, ShmRingWriter] = {}
    ring_readers: Dict[int, ShmRingReader] = {}
    owned_rings: List[ShmRing] = []
    for (src, dst), ring in (rings or {}).items():
        if src == worker_id:
            ring_writers[dst] = ShmRingWriter(ring)
            owned_rings.append(ring)
        elif dst == worker_id:
            ring_readers[src] = ShmRingReader(
                ring, peer="shm ring worker %d -> worker %d"
                % (src, worker_id))
            owned_rings.append(ring)
        else:
            ring.close()
    exchanges = {dst: ExchangeWriter(writer, ring_writers.get(dst))
                 for dst, writer in writers.items()}
    control_in: Optional[_FrameReader] = None
    control_out: Optional[_FrameWriter] = None
    for wid, (to_r, to_w, from_r, from_w) in control_fds.items():
        if wid == worker_id:
            os.close(to_w)
            os.close(from_r)
            control_in = _FrameReader(
                to_r, peer="control pipe parent -> worker %d" % worker_id)
            control_out = _FrameWriter(from_w)
        else:
            for fd in (to_r, to_w, from_r, from_w):
                os.close(fd)
    assert control_in is not None and control_out is not None
    try:
        engine = ShardEngine(job_graph, config, worker_id, num_workers,
                             exchanges, control_out, restore,
                             sealed_checkpoints)
        payload = engine.run(readers, control_in, ring_readers or None)
        control_out.send(("done", payload))
        control_out.drain()
    except _Stop:
        pass
    except BaseException as exc:
        try:
            control_out.send(("failed", _shippable(exc),
                              "".join(traceback.format_exception_only(
                                  type(exc), exc)).strip(),
                              traceback.format_exc()))
            control_out.drain()
        except Exception:
            pass
    finally:
        for writer in writers.values():
            writer.close()
        for reader in readers.values():
            reader.close()
        for ring in owned_rings:
            ring.close()
        control_in.close()
        control_out.close()


def _shippable(exc: BaseException) -> Optional[BaseException]:
    """``exc`` if it survives a pickle round trip, else ``None``."""
    try:
        pickle.loads(pickle.dumps(exc, _PICKLE_PROTOCOL))
    except Exception:
        return None
    return exc


# -- the parent coordinator -------------------------------------------------


class MultiprocessEngine:
    """Launches, supervises and federates the worker fleet.

    API-compatible with :class:`~repro.runtime.engine.Engine` for the
    surface the :class:`~repro.api.Environment` facade uses --
    ``execute()``, ``job_report()``, ``checkpoint_store``,
    ``restarts`` -- so callers switch
    backends with one config knob.  Queryable state is cooperative-only
    and raises instead of silently degrading.

    It is also the fault view (:mod:`repro.runtime.faults`) of the
    process owning the checkpoint store: no tasks, one round per
    supervision tick.
    """

    tasks: Tuple[Task, ...] = ()

    def __init__(self, job_graph: Any,
                 config: Optional[EngineConfig] = None,
                 restore: Optional[Dict[SubtaskId, TaskSnapshot]] = None
                 ) -> None:
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            raise JobFailedError(
                "the multiprocess backend requires the fork start method "
                "(job graphs close over unpicklable callables); this "
                "platform offers %r"
                % (multiprocessing.get_all_start_methods(),))
        self._mp = multiprocessing.get_context("fork")
        self.job_graph = job_graph
        self.config = config or EngineConfig(backend="multiprocess")
        #: What an attempt deploys with until a checkpoint completes.
        self._restore = restore or {}
        self.num_workers = (self.config.num_workers
                            or max(1, min(os.cpu_count() or 1, 8)))
        #: Fleet health: dead and hung (stopped) workers are declared
        #: failed and handed to the restart strategy; busy ones never.
        self.watchdog = WorkerWatchdog(range(self.num_workers))
        self._tracer = None
        if self.config.observability:
            from repro.observability.tracing import TraceContext
            self._tracer = TraceContext(self._now_ms)
        self._workers_terminated = 0
        self._workers_killed = 0
        self.restarts = 0
        self.rounds = 0
        #: The supervisor's own counters (``restarts``, ``failures``).
        self.metrics = MetricGroup("supervisor")
        self.metrics.counter("restarts")  # counted by grant_restart
        self._failures_metric = self.metrics.counter("failures")
        self._started = time.monotonic()
        #: The ``job_report()`` sections, once :func:`job_outcome` ran.
        self._report: Optional[Dict[str, Any]] = None
        #: Transport the last attempt actually used ("shm" or "pipe" --
        #: the former degrades to the latter if ring provisioning fails).
        self._exchange_transport: Optional[str] = None
        # The current attempt: the parent's control writers, subtasks
        # reported finished, done payloads by worker, the first error,
        # whether a crashing fault was recorded.
        self._writers: Dict[int, _FrameWriter] = {}
        self._finished: set = set()
        self._done: Dict[int, Dict[str, Any]] = {}
        self._error: Optional[BaseException] = None
        self._crash_recorded = False
        self._sink_targets = self._discover_sink_targets()
        self.coordinator = CheckpointCoordinator(
            self.config, self._now_ms, self._broadcast,
            *subtask_grid(self.job_graph))
        self.checkpoint_store = self.coordinator.store

    # -- static views of the graph ------------------------------------------

    def _discover_sink_targets(self) -> Dict[Tuple[int, int], Any]:
        """Map ``(vertex_id, chain_position)`` to what the sink there
        writes to in the caller's process: a collect sink's list, a
        callback sink's callback.  Its factory closes over either one
        (instantiated here)."""
        targets: Dict[Tuple[int, int], Any] = {}
        for vertex_id, vertex in sorted(self.job_graph.vertices.items()):
            for position, factory in enumerate(vertex.operator_factories):
                operator = factory()
                if isinstance(operator, CollectSink):
                    targets[(vertex_id, position)] = operator._sink.rows
                elif isinstance(operator, ForEachSink):
                    targets[(vertex_id, position)] = operator._fn
        return targets

    def _now_ms(self) -> int:
        return int((time.monotonic() - self._started) * 1000)

    @property
    def sealed_checkpoints(self) -> int:
        return self.coordinator.completed

    # -- execution ----------------------------------------------------------

    def execute(self) -> JobResult:
        if self._report is not None:
            raise JobFailedError("this engine already executed")
        while True:
            error = self._run_attempt(self._restore_point())
            if error is None:
                break
            self._failures_metric.inc()
            time.sleep(grant_restart(self, error, self._now_ms()) / 1000.0)
        supervisor = self.metrics.counters()
        supervisor["watchdog_failures"] = self.watchdog.failures_declared
        payloads = [self._done[wid] for wid in sorted(self._done)]
        return job_outcome(self, payloads, supervisor,
                           self._fleet_sections(payloads))

    def _restore_point(self) -> Dict[SubtaskId, TaskSnapshot]:
        """What the next fleet deploys with (:func:`restore_point`),
        under a ``fleet.restore`` span when tracing a durable store."""
        store = self.checkpoint_store
        before = store.durability_stats()
        if self._tracer is None or before is None:
            return restore_point(store, self._restore)[1]
        with self._tracer.span("fleet.restore") as span:
            checkpoint_id, restore = restore_point(store, self._restore)
            span.attrs["fallbacks"] = (
                store.durability_stats()["restore_fallbacks"]
                - before["restore_fallbacks"])
            span.attrs["checkpoint"] = checkpoint_id
        return restore

    def _run_attempt(self, restore: Dict[SubtaskId, TaskSnapshot]
                     ) -> Optional[BaseException]:
        """Fork a fleet, supervise it to the end, tear it down; returns
        what failed the attempt, or ``None`` (the done payloads are in
        ``self._done``)."""
        num = self.num_workers
        data_fds = {(src, dst): os.pipe()
                    for src in range(num) for dst in range(num) if src != dst}
        control_fds = {}
        for wid in range(num):
            to_r, to_w = os.pipe()
            from_r, from_w = os.pipe()
            control_fds[wid] = (to_r, to_w, from_r, from_w)
        # Fresh shared-memory rings per attempt, mapped before forking so
        # every worker inherits the same pages.  A respawned fleet never
        # sees the crashed attempt's slots.  Provisioning failure (e.g.
        # mmap exhaustion) degrades to the pipe transport rather than
        # failing the job.
        rings: Optional[Dict[Tuple[int, int], ShmRing]] = None
        if self.config.exchange == "shm" and num > 1:
            try:
                rings = {(src, dst): ShmRing(EXCHANGE_RING_SLOTS,
                                             EXCHANGE_SLOT_BYTES)
                         for src in range(num) for dst in range(num)
                         if src != dst}
            except (OSError, ValueError, MemoryError):
                for ring in (rings or {}).values():
                    ring.close()
                rings = None
        self._exchange_transport = "shm" if rings is not None else "pipe"
        processes = []
        for wid in range(num):
            process = self._mp.Process(
                target=_worker_main,
                args=(wid, num, self.job_graph, self.config, data_fds,
                      control_fds, restore, rings,
                      self.coordinator.completed),
                daemon=True)
            process.start()
            processes.append(process)
        # The parent keeps only its control ends.
        for read_fd, write_fd in data_fds.values():
            os.close(read_fd)
            os.close(write_fd)
        for ring in (rings or {}).values():
            ring.close()
        writers = {}
        readers = {}
        for wid, (to_r, to_w, from_r, from_w) in control_fds.items():
            os.close(to_r)
            os.close(from_w)
            writers[wid] = _FrameWriter(to_w)
            readers[wid] = _FrameReader(
                from_r, peer="control pipe worker %d -> parent" % wid)
        self._writers = writers
        self._finished = set()
        self._done = {}
        self._error = None
        self._crash_recorded = False
        self.watchdog.begin_attempt(range(num))
        self.coordinator.begin_attempt()
        graceful = False
        try:
            self._supervise(readers, [process.pid for process in processes])
            graceful = self._error is None
            return self._error
        finally:
            for writer in writers.values():
                writer.close()
            for reader in readers.values():
                reader.close()
            self._teardown_fleet(processes, graceful)

    def _teardown_fleet(self, processes: List[Any], graceful: bool) -> None:
        """Shutdown escalation: join -> terminate -> kill, ending in a
        blocking reap so no zombies leak past ``execute()``.

        The ladder must end in SIGKILL: a SIGSTOP'd (hung) worker is
        never scheduled, so SIGTERM sits undelivered forever, while the
        kernel honours SIGKILL even for stopped processes.  On the error
        path the polite join is skipped -- the fleet is being torn down
        because something is already wrong."""
        if graceful:
            for process in processes:
                process.join(timeout=5.0)
        for process in processes:
            if process.is_alive():
                process.terminate()
                self._workers_terminated += 1
        deadline = time.monotonic() + (1.0 if graceful else 0.5)
        for process in processes:
            if process.is_alive():
                process.join(timeout=max(0.0, deadline - time.monotonic()))
        for process in processes:
            if process.is_alive():
                process.kill()
                self._workers_killed += 1
        for process in processes:
            process.join()  # SIGKILL cannot be ignored; this reaps

    # -- supervision --------------------------------------------------------

    def _supervise(self, readers: Dict[int, _FrameReader],
                   pids: List[int]) -> None:
        """Run the current attempt until every worker is done or
        something fails: ask the kernel which workers are stopped, read
        what the workers report, then fail the stopped ones and give the
        fault injector and the checkpoint coordinator their turn."""
        selector = selectors.DefaultSelector()
        for wid, reader in readers.items():
            selector.register(reader.fd, selectors.EVENT_READ, wid)
        next_probe = 0.0
        try:
            while len(self._done) < self.num_workers and self._error is None:
                # Asked before the read: a worker stopped by now wrote
                # its last frames (a stall announcement) before it
                # stopped, so the read delivers them before the tick
                # declares it hung.
                stopped = []
                now = time.monotonic()
                if now >= next_probe:
                    next_probe = now + _SUPERVISE_WAIT_S
                    stopped = [wid for wid, pid in enumerate(pids)
                               if wid not in self._done and _is_stopped(pid)]
                timeout = _SUPERVISE_WAIT_S
                due = self.coordinator.next_trigger(self._finished)
                if due is not None:
                    timeout = min(
                        timeout, max(0.0, (due - self._now_ms()) / 1000.0))
                for key, _ in selector.select(timeout):
                    self._read_worker(key.data, readers[key.data], selector)
                for writer in self._writers.values():
                    writer.flush()
                if self._error is None:
                    self._tick(stopped)
        finally:
            selector.close()
        if self._error is None:
            return
        self._broadcast("stop")
        # Best-effort flush with a deadline: a SIGSTOP'd worker never
        # reads, so a blocking drain() here would wedge the coordinator
        # on the very failure it is reporting.  Workers that miss the
        # stop are reaped by _teardown_fleet anyway.
        flush_deadline = time.monotonic() + _ERROR_FLUSH_S
        while (any(writer.pending_bytes and not writer.broken
                   for writer in self._writers.values())
               and time.monotonic() < flush_deadline):
            for writer in self._writers.values():
                writer.flush()
            time.sleep(0.005)

    def _broadcast(self, *message: Any) -> None:
        """Send one control message to every worker still reachable;
        with ``(kind, checkpoint_id)`` this is the coordinator's
        ``send``."""
        for writer in self._writers.values():
            if not writer.broken:
                writer.send(message)

    def _fail(self, message: str, worker: Optional[int] = None,
              reason: Optional[str] = None,
              error: Optional[BaseException] = None) -> None:
        """End the attempt with ``error`` (default: ``JobFailedError(
        message)``; the first one counts), telling the watchdog why when
        one worker is to blame."""
        if self._error is None:
            self._error = (error if error is not None
                           else JobFailedError(message))
        if worker is not None:
            self.watchdog.mark_failed(worker, reason or message)

    def _read_worker(self, wid: int, reader: _FrameReader,
                     selector: Any) -> None:
        try:
            messages = reader.read_available()
        except FrameError as exc:
            self._fail("corrupt control frame from worker %d: %s"
                       % (wid, exc), wid, "corrupt control frame: %s" % exc)
            selector.unregister(reader.fd)
            return
        for message in messages:
            getattr(self, "_on_" + message[0])(wid, *message[1:])
        if not reader.eof:
            return
        selector.unregister(reader.fd)  # else it reads as ready forever
        if wid not in self._done and self._error is None:
            self._fail("worker %d exited without reporting a result" % wid,
                       wid, "control pipe EOF without a result")

    def _on_ack(self, wid: int, checkpoint_id: int,
                snapshot: TaskSnapshot) -> None:
        self.coordinator.acknowledge(checkpoint_id, snapshot)

    def _on_collect(self, wid: int, bucket_key: Tuple[int, int],
                    offset: int, rows: List[Any]) -> None:
        bucket = self._sink_targets[bucket_key]
        del bucket[offset:]
        bucket.extend(rows)

    def _on_sink(self, wid: int, key: Tuple[int, int],
                 rows: List[Any]) -> None:
        callback = self._sink_targets[key]
        try:
            for row in rows:
                callback(row)
        except Exception as exc:  # the sink's failure, as on cooperative
            self._fail("sink callback failed: %r" % (exc,), error=exc)

    def _on_task_finished(self, wid: int, subtask: Any) -> None:
        self._finished.add(tuple(subtask))

    def _on_done(self, wid: int, payload: Dict[str, Any]) -> None:
        self._done[wid] = payload
        self.watchdog.mark_done(wid)

    def _on_failed(self, wid: int, error: Optional[BaseException],
                   error_line: str, trace: str) -> None:
        message = "worker %d failed: %s\n%s" % (wid, error_line, trace)
        if error is not None:
            error.__cause__ = JobFailedError(message)
        self._fail(message, wid, error_line, error)

    def _on_fault(self, wid: int, index: int) -> None:
        faults = self.config.faults
        if faults.schedule[index].kind in RESTARTING_KINDS["multiprocess"]:
            if self._crash_recorded:
                return  # one restart per attempt: this one fires again
            self._crash_recorded = True
        faults.record(index)

    def _fault_fired(self, index: int, event: Any, victim: Any) -> None:
        pass  # the one kind firing here, corrupt-checkpoint, is done

    def _tick(self, stopped: List[int]) -> None:
        """Everything the supervisor does on the clock rather than on a
        message; ``stopped`` is the workers the kernel reports stopped."""
        self.rounds += 1
        for wid in stopped:
            self._fail("worker %d declared failed: process stopped" % wid,
                       wid, "process stopped (hung, not busy)")
        if self._error is not None:
            return
        if self.config.faults is not None:
            self.config.faults.on_round(self)
        failure = self.coordinator.tick(self._finished)
        if failure is not None:
            self._fail(failure)

    # -- the fleet's own report sections -------------------------------------

    def _fleet_sections(self, payloads: List[Dict[str, Any]]
                        ) -> Dict[str, Any]:
        """What only the parent knows: ``workers``, ``fleet``,
        ``exchange`` and its own spans (merged with the workers')."""
        fleet = {
            "shutdown": {"terminated": self._workers_terminated,
                         "killed": self._workers_killed},
            "watchdog": self.watchdog.snapshot(),
        }
        sections: Dict[str, Any] = {
            "workers": [
                {"worker": payload["worker"],
                 "rounds": payload["rounds"],
                 "simulated_time_ms": payload["simulated_time_ms"],
                 "records_emitted": records_emitted(payload["counters"])}
                for payload in payloads],
            "fleet": fleet,
        }
        edges = [{"src": payload["worker"], "dst": dst, **stats}
                 for payload in payloads
                 for dst, stats in sorted(payload["exchange"].items())]
        if edges:
            sections["exchange"] = {
                "transport": self._exchange_transport,
                "edges": edges,
                "totals": sum_nested(
                    stats for payload in payloads
                    for stats in payload["exchange"].values()),
            }
        if self._tracer is not None and self._tracer.started:
            sections["spans"] = self._tracer.digest()
        return sections

    job_report = Engine.job_report
    create_savepoint = Engine.create_savepoint

    # -- cooperative-only surfaces ------------------------------------------

    def query_state(self, operator_name: str, state_name: str, key: Any,
                    default: Any = None) -> Any:
        raise JobFailedError(
            "queryable state requires the cooperative backend (worker "
            "state lives in other processes); run with "
            "EngineConfig(backend='cooperative')")
