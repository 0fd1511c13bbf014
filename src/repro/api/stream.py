"""DataStream: the fluent API for data in motion.

Every transformation appends a node to the environment's StreamGraph and
returns a new stream handle; nothing runs until ``env.execute()``.  The
same vocabulary (map, filter, flatMap, keyBy, window, reduce, process,
union, connect) serves bounded and unbounded inputs -- the uniform
programming model.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.api.handle import _Handle, _wire
from repro.plan.graph import StreamNode
from repro.runtime.operators import (
    CoProcessOperator,
    KeyedFoldOperator,
    KeyedProcessOperator,
    KeyedReduceOperator,
    ProcessFunction,
    TimestampsAndWatermarksOperator,
)
from repro.runtime.partition import (
    BroadcastPartitioner,
    GlobalPartitioner,
    HashPartitioner,
    RebalancePartitioner,
)
from repro.time.watermarks import WatermarkStrategy
from repro.windowing.aggregates import AggregateFunction, ReduceAggregate
from repro.windowing.assigners import WindowAssigner
from repro.windowing.evictors import Evictor
from repro.windowing.operator import WindowOperator
from repro.windowing.triggers import Trigger


class DataStream(_Handle):
    """A handle on one node of the dataflow graph.  ``map`` /
    ``flat_map`` / ``filter`` / ``union`` / ``collect`` / ``add_sink``
    are the shared :class:`~repro.api.handle._Handle` verbs."""

    # -- time ------------------------------------------------------------------

    def assign_timestamps_and_watermarks(
            self, strategy: WatermarkStrategy,
            name: str = "timestamps/watermarks") -> "DataStream":
        return self._then(
            name, lambda: TimestampsAndWatermarksOperator(strategy, name=name))

    # -- partitioning ---------------------------------------------------------

    def key_by(self, key_selector: Callable[[Any], Any]) -> "KeyedStream":
        return KeyedStream(self.env, self.node, key_selector,
                           extra_upstream=self._extra_upstream)

    def group_by(self, key_selector: Callable[[Any], Any]) -> "KeyedStream":
        """Batch-vocabulary alias of :meth:`key_by`: the same pipeline
        body works on a DataSet and a DataStream."""
        return self.key_by(key_selector)

    def rebalance(self) -> "DataStream":
        return DataStream(self.env, self.node, RebalancePartitioner(),
                          self._extra_upstream)

    def broadcast(self) -> "DataStream":
        return DataStream(self.env, self.node, BroadcastPartitioner(),
                          self._extra_upstream)

    def global_(self) -> "DataStream":
        return DataStream(self.env, self.node, GlobalPartitioner(),
                          self._extra_upstream)

    # -- multi-stream ------------------------------------------------------------

    def connect(self, other: "DataStream") -> "ConnectedStreams":
        return ConnectedStreams(self.env, self, other)

    def window_join(self, other: "DataStream",
                    left_key: Callable[[Any], Any],
                    right_key: Callable[[Any], Any],
                    assigner: WindowAssigner,
                    join_fn: Callable[[Any, Any], Any] = lambda l, r: (l, r),
                    parallelism: Optional[int] = None,
                    name: str = "window-join") -> "DataStream":
        """Join this stream with ``other`` per key and event-time window;
        pairs are emitted when the watermark closes each window."""
        from repro.windowing.join import WindowJoinOperator
        return DataStream(self.env, _wire(
            self.env, name,
            lambda: WindowJoinOperator(assigner, join_fn, name),
            [(self, HashPartitioner(left_key), 0),
             (other, HashPartitioner(right_key), 1)],
            parallelism or self.env.parallelism, allow_chaining=False))

    def with_history(self, history: Any,
                     cutover: Optional[int] = None, *,
                     timestamp_fn: Optional[Callable[[Any], int]] = None,
                     timestamped: bool = False,
                     history_burst: int = 8,
                     name: str = "hybrid-source") -> "DataStream":
        """Prefix this live stream with a bounded history: the symmetric
        form of :meth:`~repro.api.dataset.DataSet.then_stream`.

        ``history`` may be a :class:`~repro.api.dataset.DataSet` source
        handle, a replayable factory of iterables, or a plain iterable.
        Both this stream's node and the history's node are absorbed into
        a single cutover source, so call it on an untransformed source.
        """
        return self.env._hybrid(history, self, cutover=cutover,
                                timestamp_fn=timestamp_fn,
                                timestamped=timestamped,
                                history_burst=history_burst, name=name)


class KeyedStream:
    """A stream partitioned by key; the gateway to state and windows."""

    def __init__(self, env, node: StreamNode,
                 key_selector: Callable[[Any], Any],
                 extra_upstream: Optional[List[DataStream]] = None) -> None:
        self.env = env
        self.node = node
        self.key_selector = key_selector
        self._extra_upstream = extra_upstream or []

    def _connect_keyed(self, name: str, operator_factory: Callable[[], Any],
                       parallelism: Optional[int] = None,
                       allow_chaining: bool = True) -> StreamNode:
        p = parallelism if parallelism is not None else self.env.parallelism
        # With an explicit partitioner ``_wire`` reads only ``node`` and
        # ``_extra_upstream`` of an input, so the keyed view is its own.
        return _wire(self.env, name, operator_factory,
                     [(self, HashPartitioner(self.key_selector), 0)], p,
                     allow_chaining=allow_chaining)

    def _then(self, name: str,
              operator_factory: Callable[[], Any]) -> DataStream:
        """A keyed verb: the stream coming out of the new vertex."""
        return DataStream(self.env,
                          self._connect_keyed(name, operator_factory))

    def reduce(self, reduce_fn: Callable[[Any, Any], Any],
               name: str = "reduce") -> DataStream:
        """Rolling per-key reduce; emits the running aggregate per record."""
        return self._then(name, lambda: KeyedReduceOperator(reduce_fn, name))

    def fold(self, initial: Any, fold_fn: Callable[[Any, Any], Any],
             name: str = "fold") -> DataStream:
        """Rolling per-key fold from ``initial``; emits the running value
        as ``(key, accumulator)`` pairs."""
        return self._then(name,
                          lambda: KeyedFoldOperator(initial, fold_fn, name))

    def sum(self, value_fn: Callable[[Any], float] = lambda v: v,
            name: str = "sum") -> DataStream:
        """Running per-key sum of ``value_fn(record)``, emitted as
        ``(key, sum)`` pairs."""
        return self.fold(0, lambda acc, v: acc + value_fn(v), name=name)

    def count(self, name: str = "count") -> DataStream:
        """Running per-key count, emitted as ``(key, count)`` pairs."""
        return self.fold(0, lambda acc, _v: acc + 1, name=name)

    def process(self, fn: ProcessFunction, name: str = "process") -> DataStream:
        return self._then(name, lambda: KeyedProcessOperator(fn, name))

    def window(self, assigner: WindowAssigner) -> "WindowedStream":
        return WindowedStream(self, assigner)

    def detect(self, pattern: "Pattern", name: str = "cep") -> DataStream:
        """Match a CEP pattern per key; emits
        :class:`~repro.cep.operator.KeyedMatch` records."""
        from repro.cep.operator import CEPOperator
        return self._then(name, lambda: CEPOperator(pattern, name))

    def shared_windows(self, aggregate_factory: Callable[[], Any],
                       queries: "Dict[Any, Callable[[], Any]]",
                       reorder: bool = False,
                       counter: Optional[Any] = None,
                       name: str = "cutty-window") -> DataStream:
        """Serve multiple window queries from one Cutty shared operator.

        ``queries`` maps query ids to window-spec factories (e.g.
        ``{"1m": lambda: PeriodicWindows(60_000)}``).  Emits
        ``CuttyWindowResult(key, query_id, start, end, value)`` records.

        Cutty requires per-key FIFO event order; pass ``reorder=True`` to
        prepend a watermark-driven reordering stage (needed whenever the
        stream was shuffled from parallel sources and carries bounded
        out-of-orderness watermarks).
        """
        from repro.cutty.operator import CuttyWindowOperator
        from repro.runtime.reorder import WatermarkReorderOperator

        cutty_factory = lambda: CuttyWindowOperator(
            aggregate_factory=aggregate_factory,
            spec_factories=queries, counter=counter, name=name)
        if not reorder:
            return self._then(name, cutty_factory)
        reordered = self._then("%s-reorder" % name, WatermarkReorderOperator)
        return reordered._then(name, cutty_factory)


class WindowedStream:
    """Builder for windowed aggregations on a keyed stream."""

    def __init__(self, keyed: KeyedStream, assigner: WindowAssigner) -> None:
        self.keyed = keyed
        self.assigner = assigner
        self._trigger: Optional[Trigger] = None
        self._evictor: Optional[Evictor] = None
        self._allowed_lateness = 0
        self._late_data_tag: Any = None

    def trigger(self, trigger: Trigger) -> "WindowedStream":
        self._trigger = trigger
        return self

    def evictor(self, evictor: Evictor) -> "WindowedStream":
        self._evictor = evictor
        return self

    def allowed_lateness(self, lateness: int) -> "WindowedStream":
        self._allowed_lateness = lateness
        return self

    def side_output_late_data(self, tag: Any) -> "WindowedStream":
        """Emit records too late for any window as ``(tag, value)``
        instead of dropping them; filter on the tag downstream."""
        self._late_data_tag = tag
        return self

    def _window_operator(self, name: str, **mode: Any) -> DataStream:
        """``mode`` is ``aggregate=`` (incremental) or ``process_fn=``
        (buffering); the builder's settings are bound now, not at open."""
        return self.keyed._then(name, functools.partial(
            WindowOperator, self.assigner, trigger=self._trigger,
            evictor=self._evictor, allowed_lateness=self._allowed_lateness,
            late_data_tag=self._late_data_tag, name=name, **mode))

    def aggregate(self, aggregate: AggregateFunction,
                  name: str = "window-aggregate") -> DataStream:
        """Incremental aggregation; emits
        :class:`~repro.windowing.operator.WindowResult` records."""
        return self._window_operator(name, aggregate=aggregate)

    def reduce(self, reduce_fn: Callable[[Any, Any], Any],
               name: str = "window-reduce") -> DataStream:
        return self.aggregate(ReduceAggregate(reduce_fn), name=name)

    def apply(self, process_fn: Callable[[Any, Any, List[Any]], Iterable[Any]],
              name: str = "window-apply") -> DataStream:
        """Buffering window computation with access to all elements."""
        return self._window_operator(name, process_fn=process_fn)


class ConnectedStreams:
    """Two streams feeding one two-input operator."""

    def __init__(self, env, first: DataStream, second: DataStream) -> None:
        self.env = env
        self.first = first
        self.second = second

    def key_by(self, key1: Callable[[Any], Any],
               key2: Callable[[Any], Any]) -> "ConnectedKeyedStreams":
        return ConnectedKeyedStreams(self.env, self.first, self.second,
                                     key1, key2)

    def process(self, fn1: Callable[[Any, Any], None],
                fn2: Callable[[Any, Any], None],
                parallelism: int = 1,
                name: str = "co-process") -> DataStream:
        """Co-process with non-keyed inputs: each side forwards or
        rebalances by parallelism unless it carries its own override
        (``data.connect(control.broadcast())``)."""
        return DataStream(self.env, _wire(
            self.env, name, lambda: CoProcessOperator(fn1, fn2, name),
            [(self.first, None, 0), (self.second, None, 1)], parallelism,
            allow_chaining=False))


class ConnectedKeyedStreams:
    """Two streams co-partitioned by key into one two-input operator."""

    def __init__(self, env, first: DataStream, second: DataStream,
                 key1: Callable[[Any], Any], key2: Callable[[Any], Any]) -> None:
        self.env = env
        self.first = first
        self.second = second
        self.key1 = key1
        self.key2 = key2

    def process(self, fn1: Callable[[Any, Any], None],
                fn2: Callable[[Any, Any], None],
                parallelism: Optional[int] = None,
                on_finish: Optional[Callable[[Any], None]] = None,
                name: str = "keyed-co-process") -> DataStream:
        return DataStream(self.env, _wire(
            self.env, name,
            lambda: CoProcessOperator(fn1, fn2, name, on_finish=on_finish),
            [(self.first, HashPartitioner(self.key1), 0),
             (self.second, HashPartitioner(self.key2), 1)],
            parallelism or self.env.parallelism, allow_chaining=False))
