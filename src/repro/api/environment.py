"""The execution environment: entry point of the uniform programming model.

One :class:`Environment` hosts *both* kinds of programs:

* :meth:`from_collection` / :meth:`from_source` / :meth:`generate_sequence`
  produce a :class:`~repro.api.stream.DataStream` (data in motion);
* :meth:`read` (alias :meth:`from_bounded`) produces a
  :class:`~repro.api.dataset.DataSet` (data at rest).

Both build nodes in the *same* :class:`~repro.plan.graph.StreamGraph` and
execute on the *same* pipelined engine -- the STREAMLINE claim that one
system serves both workloads, with batch being the special case of a
stream that ends.  There is one :meth:`execute` and one place to hand in
an :class:`~repro.runtime.engine.EngineConfig`, which also carries the
switch for the observability layer.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.api.dataset import DataSet
from repro.api.stream import DataStream
from repro.plan.explain import explain_job_graph, explain_stream_graph
from repro.plan.graph import SourceSpec, StreamGraph
from repro.runtime.engine import Engine, EngineConfig, JobResult
from repro.runtime.operators import IteratorSource


class CollectResult:
    """Handle to a sink's output, readable after ``env.execute()``."""

    def __init__(self) -> None:
        self._bucket: List[Any] = []
        self._executed = False

    def _mark_executed(self) -> None:
        self._executed = True

    def get(self) -> List[Any]:
        if not self._executed:
            raise RuntimeError(
                "results are only available after env.execute()")
        return list(self._bucket)

    def __len__(self) -> int:
        return len(self._bucket)


class Environment:
    """Builds and runs dataflow programs, batch and streaming alike."""

    def __init__(self, parallelism: int = 1,
                 config: Optional[EngineConfig] = None,
                 chaining: bool = True) -> None:
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        self.parallelism = parallelism
        self.config = config or EngineConfig()
        self.chaining = chaining
        self.graph = StreamGraph()
        self._collect_results: List[CollectResult] = []
        self._last_engine: Optional[Engine] = None
        self._table_catalog: "Dict[str, Any]" = {}
        self._arrangement_catalog = None

    # -- sources ----------------------------------------------------------

    def from_collection(self, values: Iterable[Any],
                        timestamped: bool = False,
                        name: str = "collection-source") -> "DataStream":
        """A bounded stream over an in-memory collection.

        With ``timestamped=True`` elements must be ``(value, timestamp)``
        pairs and arrive pre-stamped with event time.
        """
        materialised = list(values)
        return self.from_source(lambda: materialised,
                                timestamped=timestamped, name=name)

    def from_source(self, iterable_factory: Callable[[], Iterable[Any]],
                    timestamped: bool = False,
                    parallelism: Optional[int] = None,
                    name: str = "source") -> "DataStream":
        """A (replayable) stream over a factory of iterables.

        The factory is invoked once per (re)start, which is what makes
        exactly-once recovery possible: after a failure the source is
        re-created and skipped forward to its checkpointed offset.
        """
        stream = self._source(
            name, lambda: IteratorSource(iterable_factory,
                                         timestamped=timestamped, name=name),
            parallelism)
        stream.node.source_spec = SourceSpec(iterable_factory, timestamped)
        return stream

    def generate_sequence(self, start: int, end: int,
                          name: str = "sequence") -> "DataStream":
        """The integers ``[start, end)`` as a bounded stream."""
        if end < start:
            raise ValueError("end must be >= start")
        return self.from_source(lambda: range(start, end), name=name)

    def from_partitioned_source(self, partition_factories,
                                timestamped: bool = False,
                                parallelism: Optional[int] = None,
                                name: str = "partitioned-source"
                                ) -> "DataStream":
        """A stream over independent replayable partitions (Kafka-style).

        Unlike :meth:`from_source`, this source *can* rescale across
        savepoints: ownership and offsets are per partition, so a resume
        at different parallelism reassigns partitions instead of
        breaking positional replay.
        """
        from repro.connectors.partitioned import PartitionedSource
        factories = list(partition_factories)
        return self._source(
            name, lambda: PartitionedSource(factories,
                                            timestamped=timestamped,
                                            name=name),
            parallelism)

    def from_bounded(self, values: Iterable[Any],
                     name: str = "bounded-source") -> "DataSet":
        """Data at rest: a DataSet over an in-memory collection."""
        return DataSet(self, self.from_collection(values, name=name).node)

    def read(self, values: Iterable[Any],
             name: str = "bounded-source") -> "DataSet":
        """The batch entry point: read data at rest into a DataSet
        (alias of :meth:`from_bounded`)."""
        return self.from_bounded(values, name=name)

    # -- relational tables ---------------------------------------------------

    def table(self, rows: "Iterable[Any]",
              columns: Optional[tuple] = None,
              bounded: bool = True,
              time_column: Optional[str] = None,
              watermark_delay: int = 0,
              name: str = "rows"):
        """A relational :class:`~repro.table.table.Table` over dict rows.

        ``bounded=False`` marks the relation as streaming (windowed
        aggregations become available, ``time_column`` required).  Tables
        built here are what the arrangement catalog shares state across:
        register them (:meth:`register_table`) and reuse the *same* table
        object in many queries so their group-bys and joins attach to
        one maintained index.
        """
        from repro.table.table import make_table
        return make_table(self, list(rows), columns=columns,
                          bounded=bounded, time_column=time_column,
                          watermark_delay=watermark_delay, name=name)

    def register_table(self, name: str, table: Any):
        """Publish a table in this environment's catalog so later
        queries can look it up (and thereby share its arrangements)."""
        from repro.table.table import Table
        if not isinstance(table, Table):
            raise TypeError("register_table expects a Table; got %r"
                            % type(table).__name__)
        if table.env is not self:
            raise ValueError(
                "table %r belongs to a different environment" % name)
        self._table_catalog[name] = table
        return table

    def table_catalog(self) -> "Dict[str, Any]":
        """Registered tables by name (a copy; mutate via
        :meth:`register_table`)."""
        return dict(self._table_catalog)

    def arrangement_catalog(self):
        """The per-environment shared-arrangement catalog (created
        lazily; used by the Table compiler when
        ``EngineConfig(share_arrangements=True)``)."""
        if self._arrangement_catalog is None:
            from repro.table.arrangements import ArrangementCatalog
            self._arrangement_catalog = ArrangementCatalog(self)
        return self._arrangement_catalog

    # -- hybrid history+stream composition ----------------------------------

    def _hybrid(self, history: Any, stream: Any, *,
                cutover: Optional[int] = None,
                timestamp_fn: Optional[Callable[[Any], int]] = None,
                timestamped: bool = False,
                history_burst: int = 8,
                name: str = "hybrid-source") -> "DataStream":
        """Fuse a bounded history side and a live stream side into one
        :class:`~repro.plan.graph.CutoverNode` (used by
        ``DataSet.then_stream`` and ``DataStream.with_history``).

        Each side may be an untransformed :class:`DataSet`/:class:`DataStream`
        source handle from *this* environment, a replayable factory of
        iterables, or a plain iterable (materialised once).  Handle nodes
        are absorbed into the cutover node; their replayable factories
        come from the :class:`~repro.plan.graph.SourceSpec` the
        environment stashed at creation time.
        """
        from repro.connectors.sources import HybridSource
        history_spec, history_p, history_node = _resolve_hybrid_side(
            self, history, timestamped, "history")
        stream_spec, stream_p, stream_node = _resolve_hybrid_side(
            self, stream, timestamped, "stream")
        if cutover is not None and timestamp_fn is None and not (
                history_spec.timestamped and stream_spec.timestamped):
            raise ValueError(
                "a cutover watermark needs event time: pass timestamp_fn "
                "or make both sides timestamped")
        if (history_p is not None and stream_p is not None
                and history_p != stream_p):
            raise ValueError(
                "hybrid sides disagree on parallelism (%d vs %d); "
                "rescale one source" % (history_p, stream_p))
        parallelism = history_p or stream_p or self.parallelism
        history_name = (history_node.name if history_node is not None
                        else "history")
        stream_name = (stream_node.name if stream_node is not None
                       else "stream")
        for absorbed in (history_node, stream_node):
            if absorbed is not None:
                self.graph.remove_node(absorbed.node_id)
        node = self.graph.new_cutover_node(
            name,
            operator_factory=lambda: HybridSource(
                history_spec.factory, stream_spec.factory,
                cutover=cutover, timestamp_fn=timestamp_fn,
                history_timestamped=history_spec.timestamped,
                stream_timestamped=stream_spec.timestamped,
                history_burst=history_burst, name=name),
            parallelism=parallelism, cutover=cutover,
            history_name=history_name, stream_name=stream_name)
        return DataStream(self, node)

    # -- plumbing used by the fluent API ------------------------------------

    def _source(self, name: str, operator_factory: Callable[[], Any],
                parallelism: Optional[int]) -> "DataStream":
        """A source vertex (``parallelism`` None: the environment's)."""
        return DataStream(self, self.graph.new_node(
            name, operator_factory, parallelism or self.parallelism,
            is_source=True))

    def _new_collect_result(self) -> CollectResult:
        result = CollectResult()
        self._collect_results.append(result)
        return result

    # -- execution ------------------------------------------------------------

    def build_job_graph(self):
        from repro.plan.optimizer import optimize
        return optimize(self.graph, chaining=self.chaining)

    def execute(self, job_name: str = "job",
                from_savepoint=None) -> JobResult:
        """Run the accumulated program to completion.

        ``from_savepoint`` restores the job's state from a
        :class:`~repro.state.savepoint.Savepoint` taken by a previous run
        of the same program on either backend -- possibly at a different
        parallelism for the stateful processing vertices (sources must
        keep theirs); exactly-once sinks reattach to what it committed.

        An environment executes once: sinks and sources are bound to this
        graph instance, so re-running would double-collect results.
        Build a fresh environment per job.
        """
        if self._last_engine is not None:
            raise RuntimeError(
                "this environment already executed; create a new "
                "Environment per job")
        job_graph = self.build_job_graph()
        restore = (from_savepoint.task_snapshots(job_graph)
                   if from_savepoint is not None else None)
        if self.config.backend == "multiprocess":
            from repro.runtime.multiprocess import MultiprocessEngine
            engine = MultiprocessEngine(job_graph, self.config, restore)
        else:
            engine = Engine(job_graph, self.config, restore)
        self._last_engine = engine
        result = engine.execute()
        for collect_result in self._collect_results:
            collect_result._mark_executed()
        return result

    @property
    def last_engine(self) -> Optional[Engine]:
        return self._last_engine

    def job_report(self):
        """The last execution's :class:`~repro.observability.JobReport`
        (see :meth:`~repro.runtime.engine.Engine.job_report`)."""
        if self._last_engine is None:
            raise RuntimeError(
                "job_report() is only available after env.execute()")
        return self._last_engine.job_report()

    def explain(self) -> str:
        """The logical and physical plan, side by side."""
        logical = explain_stream_graph(self.graph)
        physical = explain_job_graph(self.build_job_graph())
        return logical + "\n" + physical


def _resolve_hybrid_side(env: Environment, side: Any, timestamped: bool,
                         role: str):
    """Normalise one side of a hybrid composition.

    Returns ``(source_spec, parallelism_or_None, absorbed_node_or_None)``.
    DataSet/DataStream handles must be untransformed sources of *this*
    environment with nobody else consuming them (the cutover node takes
    their place in the graph).
    """
    if isinstance(side, (DataSet, DataStream)):
        if side.env is not env:
            raise ValueError(
                "%s side belongs to a different environment" % role)
        node = side.node
        if not node.is_source or node.source_spec is None:
            raise ValueError(
                "%s side must be an untransformed source (read/"
                "from_collection/from_source); apply transformations "
                "after then_stream/with_history instead" % role)
        if env.graph.out_edges(node.node_id):
            raise ValueError(
                "%s side source %r already feeds other operators; a "
                "hybrid source absorbs its inputs exclusively"
                % (role, node.name))
        return node.source_spec, node.parallelism, node
    if callable(side):
        return SourceSpec(side, timestamped), None, None
    materialised = list(side)
    return SourceSpec(lambda: materialised, timestamped), None, None

