"""Operator chaining: the optimizer pass that fuses pipelined operators.

A `forward` edge between two operators of equal parallelism means record
``i`` of the upstream subtask lands in subtask ``i`` downstream with no
re-partitioning.  Executing both operators in the same subtask removes a
channel hop (serialisation + queueing in a real engine, a deque push/pop
here).  The pass greedily fuses maximal chains, subject to:

* the edge's partitioner is pointwise (``forward``),
* both endpoints have equal parallelism and permit chaining,
* the downstream node's *only* input is this edge (fan-in breaks chains),
* the upstream node has exactly one outgoing edge (fan-out breaks them).

E11 ablates this pass (``chaining=False``) to quantify its payoff.

This module also hosts the second, *intra*-chain fusion level used by
batched execution (:func:`compile_batch_chain`): within one task's
operator chain, a maximal prefix of stateless operators is compiled into
a single records-in/records-out function, so a batch pays one Python
call per operator instead of one call per record per operator.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.plan.graph import JobEdge, JobGraph, JobVertex, StreamGraph

#: A pure batch transform: list of Records in, list of Records out.
BatchTransform = Callable[[List[Any]], List[Any]]

#: A pure column kernel: parallel (values, timestamps, keys) lists in,
#: the transformed parallel lists out -- no Record objects anywhere.
ColumnKernel = Callable[[List[Any], List[Any], List[Any]],
                        Tuple[List[Any], List[Any], List[Any]]]


def compile_batch_chain(operators: List[Any]
                        ) -> Tuple[Optional[BatchTransform], int]:
    """Fuse the longest stateless prefix of an operator chain.

    Returns ``(fused_fn, prefix_len)``: ``fused_fn`` runs the first
    ``prefix_len`` operators of the chain over a whole record batch in
    one call (``None`` when no operator at the head is fusable).  An
    operator joins the prefix by returning a transform from
    :meth:`~repro.runtime.operators.Operator.make_batch_transform`;
    anything stateful, timer-driven, watermark-emitting or two-input
    returns ``None`` there and terminates the prefix.  A task feeds it
    the records between two watermarks at a time (the marks inside a
    batch split it into segments) and a batch never straddles a barrier,
    so reordering the per-operator loops into per-batch loops cannot
    change what any operator observes.
    """
    transforms: List[BatchTransform] = []
    for operator in operators:
        transform = operator.make_batch_transform()
        if transform is None:
            break
        transforms.append(transform)
    if not transforms:
        return None, 0
    if len(transforms) == 1:
        return transforms[0], 1
    transform_tuple = tuple(transforms)

    def fused(records: List[Any]) -> List[Any]:
        for transform in transform_tuple:
            records = transform(records)
            if not records:
                break
        return records

    return fused, len(transforms)


def compile_column_chain(operators: List[Any]
                         ) -> Tuple[Optional[ColumnKernel], int]:
    """Fuse the longest column-kernel prefix of an operator chain.

    The columnar twin of :func:`compile_batch_chain`: returns
    ``(kernel, prefix_len)`` where ``kernel`` runs the first
    ``prefix_len`` operators over the parallel ``(values, timestamps,
    keys)`` column lists of a ``ColumnarBatch`` (or of a source task's
    run, whose stateless suffix is compiled here too) in one call per
    operator.  No :class:`Record` is materialised inside the prefix --
    maps rewrite the value list, filters compress all three lists by a
    keep-index pass -- so rows dropped by the prefix never pay object
    construction.  Operators without a kernel
    (:meth:`~repro.runtime.operators.Operator.make_column_kernel`
    returning ``None``) terminate the prefix exactly like the row-batch
    fusion pass, and the task falls back to the row path there.
    """
    kernels: List[ColumnKernel] = []
    for operator in operators:
        kernel = operator.make_column_kernel()
        if kernel is None:
            break
        kernels.append(kernel)
    if not kernels:
        return None, 0
    if len(kernels) == 1:
        return kernels[0], 1
    kernel_tuple = tuple(kernels)

    def fused(values: List[Any], timestamps: List[Any], keys: List[Any]
              ) -> Tuple[List[Any], List[Any], List[Any]]:
        for kernel in kernel_tuple:
            values, timestamps, keys = kernel(values, timestamps, keys)
            if not values:
                break
        return values, timestamps, keys

    return fused, len(kernels)


def build_job_graph(stream_graph: StreamGraph,
                    chaining: bool = True) -> JobGraph:
    """Lower a validated StreamGraph into a JobGraph, optionally fusing
    chain-eligible edges."""
    stream_graph.validate()
    order = stream_graph.topological_order()

    chained_into: Dict[int, int] = {}  # stream node id -> chain head id
    chains: Dict[int, List[int]] = {}  # chain head id -> member node ids

    for node in order:
        node_id = node.node_id
        if node_id in chained_into:
            continue
        chains[node_id] = [node_id]
        chained_into[node_id] = node_id
        if not chaining:
            continue
        # Greedily extend the chain while the single outgoing edge is eligible.
        tail = node_id
        while True:
            out_edges = stream_graph.out_edges(tail)
            if len(out_edges) != 1:
                break
            edge = out_edges[0]
            target = stream_graph.nodes[edge.target_id]
            upstream = stream_graph.nodes[tail]
            eligible = (edge.partitioner.is_pointwise
                        and edge.target_input == 0
                        and target.parallelism == upstream.parallelism
                        and upstream.allow_chaining
                        and target.allow_chaining
                        and len(stream_graph.in_edges(target.node_id)) == 1
                        and target.node_id not in chained_into)
            if not eligible:
                break
            chains[node_id].append(target.node_id)
            chained_into[target.node_id] = node_id
            tail = target.node_id

    vertices: Dict[int, JobVertex] = {}
    head_to_vertex: Dict[int, int] = {}
    for vertex_id, (head, members) in enumerate(sorted(chains.items())):
        member_nodes = [stream_graph.nodes[m] for m in members]
        vertices[vertex_id] = JobVertex(
            vertex_id,
            names=[n.name for n in member_nodes],
            operator_factories=[n.operator_factory for n in member_nodes],
            parallelism=member_nodes[0].parallelism,
            is_source=member_nodes[0].is_source,
        )
        head_to_vertex[head] = vertex_id

    edges: List[JobEdge] = []
    for edge in stream_graph.edges:
        source_head = chained_into[edge.source_id]
        target_head = chained_into[edge.target_id]
        if source_head == target_head:
            continue  # fused away
        # Only edges leaving a chain tail / entering a chain head survive.
        edges.append(JobEdge(head_to_vertex[source_head],
                             head_to_vertex[target_head],
                             edge.partitioner, edge.target_input))
    return JobGraph(vertices, edges)
