"""What data at rest and data in motion share: the dataflow handle.

A handle names one node of the environment's StreamGraph plus what the
*next* verb should know about it -- a partitioner override
(``rebalance()`` etc.) and the other upstreams of a ``union()``.  The
element-wise verbs and the sinks are defined here once for
:class:`~repro.api.dataset.DataSet` and
:class:`~repro.api.stream.DataStream`, and every non-source vertex of
the fluent layer is added by :func:`_wire`, so a union or an override
applies to whichever verb comes next: one-input, keyed or two-input.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Callable, Iterable, List, Optional,
                    Tuple, TypeVar)

from repro.connectors import sinks
from repro.plan.graph import StreamNode
from repro.runtime.operators import (
    FilterOperator,
    FlatMapOperator,
    ForEachSink,
    MapOperator,
)
from repro.runtime.partition import (
    ForwardPartitioner,
    Partitioner,
    RebalancePartitioner,
)

if TYPE_CHECKING:
    from repro.api.environment import CollectResult

#: "A handle of the kind the verb was called on."
H = TypeVar("H", bound="_Handle")


def _wire(env, name: str, operator_factory: Callable[[], Any],
          inputs: List[Tuple[Any, Optional[Partitioner], int]],
          parallelism: int, is_sink: bool = False,
          allow_chaining: bool = True) -> StreamNode:
    """Add one vertex and its in-edges: the only place the fluent layer
    and the Table compiler grow the graph past a source.

    ``inputs`` is ``[(handle, partitioner or None, target_input)]``.
    Each handle contributes an edge from its own node *and* from every
    upstream it was union'd with; an edge uses the explicit partitioner
    (keyed verbs pass their hash), else the upstream's own override,
    else forward/rebalance by parallelism.
    """
    target = env.graph.new_node(name, operator_factory, parallelism,
                                is_sink=is_sink,
                                allow_chaining=allow_chaining)
    for handle, partitioner, target_input in inputs:
        for upstream in [handle] + handle._extra_upstream:
            env.graph.add_edge(
                upstream.node.node_id, target.node_id,
                partitioner or upstream._edge_partitioner(parallelism),
                target_input=target_input)
    return target


class _Handle:
    """A handle on one node of the dataflow graph (base of DataSet and
    DataStream; holds the verbs both sides spell the same way)."""

    #: Subtasks of an ``add_sink`` that names none (None: the input's).
    _sink_parallelism: Optional[int] = None

    def __init__(self, env, node: StreamNode,
                 partitioner: Optional[Partitioner] = None,
                 extra_upstream: Optional[List["_Handle"]] = None) -> None:
        self.env = env
        self.node = node
        # Partitioner override for the *next* hop (set by rebalance() etc.).
        self._partitioner = partitioner
        # Additional upstream handles feeding the next operator (union()).
        self._extra_upstream = extra_upstream or []

    # -- wiring helpers ------------------------------------------------------

    def _edge_partitioner(self, target_parallelism: int) -> Partitioner:
        if self._partitioner is not None:
            return self._partitioner
        if self.node.parallelism == target_parallelism:
            return ForwardPartitioner()
        return RebalancePartitioner()

    def _connect(self, name: str, operator_factory: Callable[[], Any],
                 parallelism: Optional[int] = None,
                 partitioner: Optional[Partitioner] = None,
                 is_sink: bool = False,
                 allow_chaining: bool = True) -> StreamNode:
        p = parallelism if parallelism is not None else self.node.parallelism
        return _wire(self.env, name, operator_factory,
                     [(self, partitioner, 0)], p, is_sink=is_sink,
                     allow_chaining=allow_chaining)

    def _then(self: H, name: str, operator_factory: Callable[[], Any],
              **wiring: Any) -> H:
        """A one-input verb: a handle of this kind on the new vertex."""
        return type(self)(self.env,
                          self._connect(name, operator_factory, **wiring))

    # -- stateless transformations -------------------------------------------

    def map(self: H, fn: Callable[[Any], Any], name: str = "map") -> H:
        return self._then(name, lambda: MapOperator(fn, name))

    def flat_map(self: H, fn: Callable[[Any], Iterable[Any]],
                 name: str = "flat-map") -> H:
        return self._then(name, lambda: FlatMapOperator(fn, name))

    def filter(self: H, predicate: Callable[[Any], bool],
               name: str = "filter") -> H:
        return self._then(name, lambda: FilterOperator(predicate, name))

    def union(self: H, *others: H) -> H:
        """Merge inputs of the same type; adds no vertex -- the next
        operator reads all of them."""
        if not others:
            return self
        merged = list(self._extra_upstream)
        for other in others:
            merged += [other] + other._extra_upstream
        return type(self)(self.env, self.node, self._partitioner, merged)

    # -- sinks ---------------------------------------------------------------

    def collect(self, with_timestamps: bool = False,
                name: str = "collect") -> "CollectResult":
        """Gather results into a list readable after ``env.execute()``,
        exactly-once: a row lands when its checkpoint commits."""
        result = self.env._new_collect_result()
        sink = sinks.ListSink(result._bucket)  # outlives task attempts
        self._connect(
            name,
            lambda: sinks.CollectSink(sink, with_timestamps=with_timestamps,
                                      name=name),
            parallelism=1, is_sink=True)
        return result

    def add_sink(self, fn: Callable[[Any], None],
                 parallelism: Optional[int] = None,
                 name: str = "sink") -> None:
        if isinstance(fn, sinks.TransactionalSink):
            # An exactly-once sink owns one target file, so its writes
            # cannot be spread over parallel subtasks.
            if parallelism not in (None, 1):
                raise ValueError(
                    "transactional sinks require parallelism 1; got %r"
                    % parallelism)
            parallelism = 1
            factory = lambda: sinks.TransactionalSinkOperator(fn, name)
        else:
            if parallelism is None:
                parallelism = self._sink_parallelism
            factory = lambda: ForEachSink(fn, name)
        self._connect(name, factory, parallelism=parallelism, is_sink=True)
