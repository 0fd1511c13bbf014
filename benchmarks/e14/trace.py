"""Tracing from outside: spans around the layers' public functions.

``install(tracer)`` replaces public methods and module functions of the
engine with timing wrappers and returns the function that puts the
originals back.  Nothing in ``src/`` changes; a wrapper does nothing but
call through while no span is open, so importing this module is free.

A span is one node of a tree rooted at ``Engine.execute`` (one tree per
process; worker processes of the multiprocess backend inherit the
installed wrappers through ``fork``, open their own root around
``ShardEngine.run`` and dump their tree when it returns).  Calls at
batch granularity and above get one node each.  Per-record functions
fold into one *aggregate* node per enclosing node -- a call count and
the summed time -- so memory is bounded by the number of batches, not
records.  A node's self time is its own time minus its children's.

Every wrapper costs time: the part spent before and after the wrapped
call lands in the parent's self time, the part between the two clock
reads in the node's own.  ``calibrate()`` measures both on a no-op and
``Tracer.self_times`` subtracts them, so a layer that makes many small
calls (keyed state, timers) is not charged for being watched.
"""

import json
import os
import resource
import time
from collections import Counter, defaultdict

from repro.connectors.sinks import TransactionalSink, TransactionalSinkOperator
from repro.cutty.operator import CuttyWindowOperator
from repro.plan import chaining
from repro.runtime import columnar, multiprocess
from repro.runtime.batch import GroupReduceOperator, HashJoinOperator
from repro.runtime.channels import Channel
from repro.runtime.engine import Engine
from repro.runtime.operators import (
    CollectSink,
    FilterOperator,
    FlatMapOperator,
    ForEachSink,
    IteratorSource,
    MapOperator,
    Operator,
    TimestampsAndWatermarksOperator,
)
from repro.runtime.partition import HashPartitioner
from repro.runtime.reorder import WatermarkReorderOperator
from repro.runtime.shm import ShmRingReader, ShmRingWriter
from repro.runtime.task import OutputEdge, Task
from repro.state import descriptors, durable
from repro.state.backend import KeyedStateBackend
from repro.state.checkpoint import CheckpointStore
from repro.time.timers import TimerQueue
from repro.windowing.operator import WindowOperator

_clock = time.perf_counter


class Node:
    """One span, or one aggregate of per-record calls under a span."""

    __slots__ = ("span_id", "parent", "layer", "name", "start", "end",
                 "busy", "calls", "records", "aggregate", "child_busy",
                 "child_spans", "child_aggregate_calls", "aggregates")

    def __init__(self, span_id, parent, layer, name, aggregate):
        self.span_id = span_id
        self.parent = parent
        self.layer = layer
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.busy = 0.0
        self.calls = 0
        self.records = 0
        self.aggregate = aggregate
        self.child_busy = 0.0
        self.child_spans = 0
        self.child_aggregate_calls = 0
        self.aggregates = None


class Tracer:
    """The span tree of one process plus the counts taken at the same
    boundaries."""

    def __init__(self, trace_id, out_dir):
        self.trace_id = trace_id
        self.out_dir = out_dir
        self.process = "main"
        self.nodes = []
        self.current = None
        #: Sums (records, calls, bytes) keyed by metric-ish names.
        self.counts = Counter()
        #: High-water marks.
        self.peaks = defaultdict(int)
        #: Snapshot seconds per checkpoint id.
        self.snapshot_s = defaultdict(float)
        #: Records per downstream channel of every hash edge, keyed by
        #: "vertex:edge" and summed over the upstream subtasks seen here.
        self.hash_edges = {}
        #: Scratch values wrappers keep between calls.
        self.marks = {}
        self.checkpoint_id = 0
        #: The span closed last, for wrappers that size it afterwards.
        self.last_span = None
        #: Per-call wrapper costs, filled in by ``calibrate``.
        self.span_outside_s = self.span_inside_s = 0.0
        self.aggregate_outside_s = self.aggregate_inside_s = 0.0

    def reset(self, process):
        """Start an empty tree in a forked worker."""
        self.process = process
        self.nodes = []
        self.current = None
        self.counts = Counter()
        self.peaks = defaultdict(int)
        self.snapshot_s = defaultdict(float)
        self.hash_edges = {}
        self.marks = {}

    def new_node(self, parent, layer, name, aggregate):
        node = Node("%s:%d" % (self.process, len(self.nodes)), parent,
                    layer, name, aggregate)
        self.nodes.append(node)
        return node

    # -- analysis -----------------------------------------------------------

    def self_time(self, node):
        if node.aggregate:
            own = node.busy - node.calls * self.aggregate_inside_s
        else:
            own = node.busy - self.span_inside_s
        own -= (node.child_busy
                + node.child_spans * self.span_outside_s
                + node.child_aggregate_calls * self.aggregate_outside_s)
        return max(0.0, own)

    def self_times(self):
        """Self seconds summed per ``(layer, name)``."""
        totals = defaultdict(float)
        for node in self.nodes:
            totals[(node.layer, node.name)] += self.self_time(node)
        return totals

    def summary(self):
        """Everything a parent process needs from a worker's trace."""
        roots = [node for node in self.nodes if node.parent is None]
        return {
            "process": self.process,
            "self_s": [[layer, name, seconds] for (layer, name), seconds
                       in self.self_times().items()],
            "inclusive_s": self._inclusive(),
            "root_start_s": min((node.start for node in roots), default=0.0),
            "counts": dict(self.counts),
            "peaks": dict(self.peaks),
            "snapshot_s": {str(key): value
                           for key, value in self.snapshot_s.items()},
            "hash_edges": self.hash_edges,
        }

    def _inclusive(self):
        totals = defaultdict(float)
        for node in self.nodes:
            totals["%s/%s" % (node.layer, node.name)] += node.busy
        return dict(totals)

    def dump(self, path):
        """One JSON object per span, parents before children."""
        with open(path, "w", encoding="utf-8") as handle:
            for node in self.nodes:
                handle.write(json.dumps({
                    "trace_id": self.trace_id,
                    "span_id": node.span_id,
                    "parent_id": (node.parent.span_id
                                  if node.parent is not None else None),
                    "layer": node.layer,
                    "name": node.name,
                    "start_s": node.start,
                    "end_s": node.end,
                    "calls": node.calls,
                    "records": node.records,
                    "aggregate": node.aggregate,
                    "busy_s": node.busy,
                    "self_s": self.self_time(node),
                }) + "\n")


#: The tracer the installed wrappers report to (a one-slot list so the
#: wrappers read it without a global statement); ``None`` when tracing
#: is off.
_ACTIVE = [None]


# -- wrapper factories ------------------------------------------------------------


def _span(layer, name, fn, records=None, fold_idle=False, after=None):
    """One node per call.  ``records(args, result)`` sizes the span;
    ``after(tracer, args, result, elapsed_s)`` takes counts at the
    boundary.
    With ``fold_idle`` a call that did nothing traced (no children, no
    records) is merged into an aggregate sibling instead of kept."""
    idle_name = name + ".idle"

    def wrapper(*args, **kwargs):
        tracer = _ACTIVE[0]
        parent = tracer.current if tracer is not None else None
        if parent is None:
            return fn(*args, **kwargs)
        node = tracer.new_node(parent, layer, name, False)
        tracer.current = node
        node.calls = 1
        node.start = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            node.end = end = _clock()
            node.busy = busy = end - node.start
            tracer.current = parent
            parent.child_busy += busy
            parent.child_spans += 1
        if records is not None:
            node.records = records(args, result)
        if after is not None:
            after(tracer, args, result, busy)
        tracer.last_span = node
        if (fold_idle and not node.records and not node.child_spans
                and node.aggregates is None):
            tracer.nodes.pop()
            idle = _aggregate_node(tracer, parent, layer, idle_name)
            idle.calls += 1
            idle.busy += busy
            idle.end = node.end
            # Already charged to the parent as a span; keep it that way.
        return result

    return wrapper


def _aggregate_node(tracer, parent, layer, name):
    aggregates = parent.aggregates
    if aggregates is None:
        aggregates = parent.aggregates = {}
    node = aggregates.get((layer, name))
    if node is None:
        node = aggregates[(layer, name)] = tracer.new_node(
            parent, layer, name, True)
        node.start = _clock()
    return node


def _aggregate(layer, name, fn, after=None):
    """Fold every call under the same enclosing node into one node."""

    def wrapper(*args, **kwargs):
        tracer = _ACTIVE[0]
        parent = tracer.current if tracer is not None else None
        if parent is None:
            return fn(*args, **kwargs)
        node = _aggregate_node(tracer, parent, layer, name)
        tracer.current = node
        start = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            node.end = end = _clock()
            elapsed = end - start
            node.busy += elapsed
            node.calls += 1
            tracer.current = parent
            parent.child_busy += elapsed
            parent.child_aggregate_calls += 1
        if after is not None:
            after(tracer, args, result, elapsed)
        return result

    return wrapper


def _root(layer, name, fn, before=None, after=None):
    """Open the tree: the only wrapper that works with no span open."""

    def wrapper(*args, **kwargs):
        tracer = _ACTIVE[0]
        if tracer is None:
            return fn(*args, **kwargs)
        if before is not None:
            before(tracer, args)
        node = tracer.new_node(None, layer, name, False)
        node.calls = 1
        tracer.current = node
        node.start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            node.end = _clock()
            node.busy = node.end - node.start
            tracer.current = None
            if after is not None:
                after(tracer, args)

    return wrapper


def calibrate(tracer, calls=20000):
    """Measure what one span and one aggregate wrapper cost, split into
    the part outside the wrapper's own clock reads and the part inside."""

    def noop():
        return None

    def timed(fn):
        start = _clock()
        for _ in range(calls):
            fn()
        return (_clock() - start) / calls

    saved = _ACTIVE[0]
    scratch = Tracer("calibration", tracer.out_dir)
    _ACTIVE[0] = scratch
    try:
        bare = timed(noop)
        for kind, wrapped in (("span", _span("calibration", "span", noop)),
                              ("aggregate",
                               _aggregate("calibration", "aggregate", noop))):
            scratch.nodes = []
            root = scratch.new_node(None, "calibration", "root", False)
            scratch.current = root
            total = timed(wrapped) - bare
            inside = max(0.0, root.child_busy / calls - bare)
            setattr(tracer, kind + "_inside_s", inside)
            setattr(tracer, kind + "_outside_s", max(0.0, total - inside))
    finally:
        _ACTIVE[0] = saved


# -- boundary counts ----------------------------------------------------------------


def _count(name, amount=lambda args, result: 1):
    def after(tracer, args, result, elapsed_s):
        tracer.counts[name] += amount(args, result)
    return after


def _after_push(tracer, args, result, elapsed_s):
    channel, element = args
    counts = tracer.counts
    counts["channels.elements"] += 1
    if element.is_batch:
        counts["channels.data_elements"] += 1
        counts["channels.records"] += len(element)
    elif element.is_record:
        counts["channels.data_elements"] += 1
        counts["channels.records"] += 1
    if channel.size > tracer.peaks["channels.occupancy"]:
        tracer.peaks["channels.occupancy"] = channel.size


def _after_register(tracer, args, result, elapsed_s):
    tracer.counts["timers.registrations"] += 1
    if result:
        tracer.counts["timers.new"] += 1


def _after_step(tracer, args, result, elapsed_s):
    tracer.counts["task.steps"] += 1
    if not result:
        tracer.counts["task.idle_steps"] += 1


def _after_snapshot(tracer, args, result, elapsed_s):
    tracer.snapshot_s[tracer.checkpoint_id] += elapsed_s


def _after_backend_snapshot(tracer, args, result, elapsed_s):
    tracer.snapshot_s[tracer.checkpoint_id] += elapsed_s
    entries = args[0].num_entries()
    if entries > tracer.peaks["state.entries"]:
        tracer.peaks["state.entries"] = entries


def _after_cutty_snapshot(tracer, args, result, elapsed_s):
    tracer.snapshot_s[tracer.checkpoint_id] += elapsed_s
    # One sample per subtask per checkpoint; the final count comes from
    # job_report() after the run.
    slices = args[0].sharing_stats()["live_slices"]
    if slices > tracer.peaks["cutty.live_slices"]:
        tracer.peaks["cutty.live_slices"] = slices


def _after_commit(tracer, args, result, elapsed_s):
    """Bytes the sink rewrote: the whole target file after each commit
    that published anything."""
    sink = args[0]
    progress = (sink.transactions_committed, sink.records_committed)
    if tracer.marks.get(("sink", id(sink))) != progress:
        tracer.marks[("sink", id(sink))] = progress
        tracer.counts["sink.commits"] += 1
        if os.path.exists(sink.path):
            size = os.path.getsize(sink.path)
            tracer.counts["sink.bytes_rewritten"] += size
            tracer.peaks["sink.final_bytes"] = size


def _sized_emit_batch(fn):
    """Source bursts: size the span by how far the source's public
    checkpoint offset moved."""
    timed = _span("connectors.source", "emit_batch", fn)

    def wrapper(self, source_ctx, max_records):
        tracer = _ACTIVE[0]
        if tracer is None or tracer.current is None:
            return fn(self, source_ctx, max_records)
        before = self.snapshot_state()["offset"]
        more = timed(self, source_ctx, max_records)
        emitted = self.snapshot_state()["offset"] - before
        tracer.last_span.records = emitted
        tracer.counts["source.records"] += emitted
        return more

    return wrapper


def _watermark_open(fn):
    """Count and time watermark emission through the operator's public
    ``emit_watermark_fn`` hook, which the task wires before ``open``."""

    def wrapper(self, ctx):
        fn(self, ctx)
        emit = self.emit_watermark_fn
        if _ACTIVE[0] is not None and emit is not None:
            self.emit_watermark_fn = _aggregate(
                "time.watermarks", "emit", emit,
                after=_count("watermarks.emitted"))

    return wrapper


def _sampling_on_watermark(fn):
    """Sample keyed-state size wherever a window operator sees time
    advance (untimed: it is a read of two dict lengths)."""

    def wrapper(self, timestamp):
        tracer = _ACTIVE[0]
        if tracer is not None and tracer.current is not None:
            entries = self.ctx.backend.num_entries()
            if entries > tracer.peaks["state.entries"]:
                tracer.peaks["state.entries"] = entries
        return fn(self, timestamp)

    return wrapper


def _noting_checkpoint(fn):
    def wrapper(self, checkpoint_id):
        tracer = _ACTIVE[0]
        if tracer is not None:
            tracer.checkpoint_id = checkpoint_id
        return fn(self, checkpoint_id)

    return wrapper


def _counting_runnable(prop):
    def is_runnable(self):
        runnable = prop.fget(self)
        tracer = _ACTIVE[0]
        if tracer is not None and tracer.current is not None:
            tracer.counts["task.visits"] += 1
            if (not runnable and not self.finished and self.failed is None
                    and not self.has_output_capacity):
                tracer.counts["task.backpressured"] += 1
        return runnable

    return property(is_runnable)


def _compiling(compile_fn, name):
    """Wrap the chain compilers so the callable they return is a span."""

    def wrapper(operators):
        fused, prefix = compile_fn(operators)
        if fused is not None and _ACTIVE[0] is not None:
            fused = _span("runtime.task", name, fused,
                          records=lambda args, result: len(args[0]))
        return fused, prefix

    return wrapper


def collect_engine_counts(tracer, engine):
    """Counts the engine keeps itself, read from its public attributes
    once the run is over."""
    for task in engine.tasks:
        for position, edge in enumerate(task.output_edges):
            if isinstance(edge.partitioner, HashPartitioner):
                pushed = [channel.pushed for channel in edge.channels]
                key = "%d:%d" % (task.vertex_id, position)
                seen = tracer.hash_edges.get(key)
                tracer.hash_edges[key] = (
                    pushed if seen is None
                    else [a + b for a, b in zip(seen, pushed)])


# -- worker-side root (multiprocess backend) --------------------------------------


def _shard_run(fn):
    def before(tracer, args):
        engine = args[0]
        tracer.reset("w%d" % engine.worker_id)
        tracer.marks["cpu_start_s"] = time.process_time()

    def after(tracer, args):
        engine = args[0]
        tracer.counts["worker.cpu_s"] = (
            time.process_time() - tracer.marks["cpu_start_s"])
        tracer.peaks["worker.rss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
        collect_engine_counts(tracer, engine)
        base = os.path.join(tracer.out_dir,
                            "trace-%s.%s" % (tracer.trace_id, tracer.process))
        tracer.dump(base + ".jsonl")
        with open(base + ".summary.json", "w", encoding="utf-8") as handle:
            json.dump(tracer.summary(), handle)

    return _root("runtime.engine", "shard.run", fn, before, after)


# -- install ----------------------------------------------------------------------


_STATE_READS = ("value", "get", "contains", "keys", "items", "is_empty")
_STATE_WRITES = ("update", "add", "put", "remove", "clear")


def _patches(extra_sources):
    """``(owner, attribute, replacement)`` for every wrapped function."""
    def method(cls, attr, make):
        return (cls, attr, make(cls.__dict__[attr]))

    def span(cls, attr, layer, name, **kwargs):
        return method(cls, attr, lambda fn: _span(layer, name, fn, **kwargs))

    def aggregate(cls, attr, layer, name, **kwargs):
        return method(cls, attr,
                      lambda fn: _aggregate(layer, name, fn, **kwargs))

    batch_len = lambda args, result: len(args[1])
    patches = [
        # connectors.source / connectors.sink
        aggregate(TransactionalSink, "write", "connectors.sink", "write",
                  after=_count("sink.records")),
        span(TransactionalSink, "pre_commit", "connectors.sink",
             "pre_commit"),
        span(TransactionalSink, "commit_through", "connectors.sink",
             "commit", after=_after_commit),
        span(TransactionalSink, "flush_final", "connectors.sink", "commit",
             after=_after_commit),
        method(TransactionalSinkOperator, "on_checkpoint",
               _noting_checkpoint),
        aggregate(ForEachSink, "process", "connectors.sink", "write",
                  after=_count("sink.records")),
        span(ForEachSink, "process_batch", "connectors.sink", "write_batch",
             records=batch_len,
             after=_count("sink.records", lambda a, r: len(a[1]))),
        aggregate(CollectSink, "process", "connectors.sink", "write",
                  after=_count("sink.records")),
        span(CollectSink, "process_batch", "connectors.sink", "write_batch",
             records=batch_len,
             after=_count("sink.records", lambda a, r: len(a[1]))),
        # time
        aggregate(TimestampsAndWatermarksOperator, "process",
                  "time.watermarks", "assign"),
        method(TimestampsAndWatermarksOperator, "open", _watermark_open),
        aggregate(TimerQueue, "register", "time.timers", "register",
                  after=_after_register),
        aggregate(TimerQueue, "delete", "time.timers", "delete"),
        aggregate(TimerQueue, "pop_due", "time.timers", "pop_due",
                  after=_count("timers.fired", lambda a, r: len(r))),
        aggregate(TimerQueue, "snapshot", "time.timers", "snapshot",
                  after=_after_snapshot),
        # runtime.task
        span(Task, "step", "runtime.task", "step", fold_idle=True,
             after=_after_step),
        (Task, "is_runnable", _counting_runnable(Task.__dict__["is_runnable"])),
        aggregate(MapOperator, "process", "runtime.task", "chain.map"),
        aggregate(FilterOperator, "process", "runtime.task", "chain.filter"),
        aggregate(FlatMapOperator, "process", "runtime.task",
                  "chain.flat_map"),
        (chaining, "compile_batch_chain",
         _compiling(chaining.compile_batch_chain, "chain.fused_batch")),
        (chaining, "compile_column_chain",
         _compiling(chaining.compile_column_chain, "chain.column_kernel")),
        method(Operator, "on_checkpoint", _noting_checkpoint),
        # runtime.partition / runtime.channels
        aggregate(OutputEdge, "emit_record", "runtime.partition",
                  "emit_record", after=_count("partition.records")),
        span(OutputEdge, "emit_batch", "runtime.partition", "emit_batch",
             records=batch_len,
             after=_count("partition.records", lambda a, r: len(a[1]))),
        span(OutputEdge, "emit_columnar", "runtime.partition",
             "emit_columnar", records=batch_len,
             after=_count("partition.records", lambda a, r: len(a[1]))),
        aggregate(OutputEdge, "broadcast", "runtime.partition", "broadcast"),
        aggregate(Channel, "push", "runtime.channels", "push",
                  after=_after_push),
        aggregate(Channel, "poll", "runtime.channels", "poll"),
        aggregate(multiprocess.EgressChannel, "push", "runtime.channels",
                  "egress.push", after=_after_push),
        # runtime.reorder / runtime.batch
        aggregate(WatermarkReorderOperator, "process", "runtime.reorder",
                  "buffer"),
        aggregate(WatermarkReorderOperator, "on_watermark",
                  "runtime.reorder", "release"),
        span(WatermarkReorderOperator, "snapshot_state", "runtime.reorder",
             "snapshot", after=_after_snapshot),
        aggregate(GroupReduceOperator, "process", "runtime.batch",
                  "group.buffer", after=_count("batch.buffered")),
        span(GroupReduceOperator, "finish", "runtime.batch", "group.finish"),
        aggregate(HashJoinOperator, "process", "runtime.batch",
                  "join.buffer", after=_count("batch.buffered")),
        aggregate(HashJoinOperator, "process2", "runtime.batch",
                  "join.buffer", after=_count("batch.buffered")),
        span(HashJoinOperator, "finish", "runtime.batch", "join.finish"),
        # runtime.engine
        method(Engine, "execute",
               lambda fn: _root("runtime.engine", "execute", fn)),
        method(multiprocess.MultiprocessEngine, "execute",
               lambda fn: _root("runtime.engine", "supervise", fn)),
        method(multiprocess.ShardEngine, "run", _shard_run),
        # runtime.shm / runtime.multiprocess
        aggregate(ShmRingWriter, "try_write", "runtime.shm", "try_write"),
        aggregate(ShmRingReader, "read_available", "runtime.shm",
                  "read_available"),
        aggregate(multiprocess.ExchangeWriter, "send",
                  "runtime.multiprocess", "exchange.send"),
        aggregate(multiprocess.ShardEngine, "pump_ingress",
                  "runtime.multiprocess", "pump_ingress"),
        aggregate(multiprocess.ShardEngine, "flush_egress",
                  "runtime.multiprocess", "flush_egress"),
        aggregate(multiprocess.ShardEngine, "drain_collect",
                  "runtime.multiprocess", "drain_collect"),
        # state
        span(KeyedStateBackend, "snapshot", "state.checkpoint",
             "keyed_snapshot", after=_after_backend_snapshot),
        span(CheckpointStore, "add", "state.checkpoint", "store.add"),
        span(durable.DurableCheckpointStore, "add", "state.checkpoint",
             "durable.add"),
        # windowing / cutty
        aggregate(WindowOperator, "process", "windowing", "process",
                  after=_count("windowing.records")),
        aggregate(WindowOperator, "on_event_timer", "windowing", "fire"),
        aggregate(WindowOperator, "on_processing_timer", "windowing", "fire"),
        method(WindowOperator, "on_watermark", _sampling_on_watermark),
        aggregate(CuttyWindowOperator, "process", "cutty", "process"),
        span(CuttyWindowOperator, "process_batch", "cutty", "process_batch",
             records=batch_len),
        span(CuttyWindowOperator, "finish", "cutty", "finish"),
        span(CuttyWindowOperator, "snapshot_state", "cutty", "snapshot",
             after=_after_cutty_snapshot),
    ]
    for source in [IteratorSource] + list(extra_sources):
        patches.append(method(source, "emit_batch", _sized_emit_batch))
    for handle in (descriptors.ValueState, descriptors.ListState,
                   descriptors.MapState, descriptors.ReducingState,
                   descriptors.AggregatingState):
        for attr in _STATE_READS + _STATE_WRITES:
            if attr in handle.__dict__:
                kind = "read" if attr in _STATE_READS else "write"
                patches.append(aggregate(
                    handle, attr, "state", kind,
                    after=_count("state.%ss" % kind)))
    # Module functions: patch the defining module and every module that
    # imported the name at import time.
    encode_bytes = _count("columnar.bytes", lambda a, r: len(r))
    for name, label, after in (
            ("batch_to_columnar", "to_columnar", None),
            ("columnar_from_lists", "from_lists", None),
            ("encode_columnar", "encode", encode_bytes),
            ("decode_columnar", "decode", None)):
        wrapped = _span("runtime.columnar", label, getattr(columnar, name),
                        after=after)
        patches.append((columnar, name, wrapped))
        if hasattr(multiprocess, name):
            patches.append((multiprocess, name, wrapped))
    patches.append((durable, "write_snapshot_file", _span(
        "state.checkpoint", "write_snapshot_file",
        durable.write_snapshot_file,
        after=_count("checkpoint.bytes", lambda a, r: r["length"]))))
    return patches


def install(tracer, extra_sources=()):
    """Wrap the layers and start reporting to ``tracer``; returns the
    function that removes every wrapper again."""
    originals = []
    for owner, attr, replacement in _patches(extra_sources):
        originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)
    _ACTIVE[0] = tracer

    def uninstall():
        _ACTIVE[0] = None
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)

    return uninstall
