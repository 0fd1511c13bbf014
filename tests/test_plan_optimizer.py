"""Tests for plan-level optimization: dead-branch elimination."""

import pytest

from repro.api import Environment
from repro.plan import eliminate_dead_branches
from repro.plan.graph import StreamGraph
from repro.runtime.operators import MapOperator
from repro.runtime.partition import ForwardPartitioner


def map_factory():
    return MapOperator(lambda v: v)


class TestDeadBranchElimination:
    def test_branch_without_sink_removed(self):
        graph = StreamGraph()
        source = graph.new_node("src", map_factory, 1, is_source=True)
        live = graph.new_node("live", map_factory, 1)
        sink = graph.new_node("sink", map_factory, 1, is_sink=True)
        dead1 = graph.new_node("dead1", map_factory, 1)
        dead2 = graph.new_node("dead2", map_factory, 1)
        graph.add_edge(source.node_id, live.node_id, ForwardPartitioner())
        graph.add_edge(live.node_id, sink.node_id, ForwardPartitioner())
        graph.add_edge(source.node_id, dead1.node_id, ForwardPartitioner())
        graph.add_edge(dead1.node_id, dead2.node_id, ForwardPartitioner())
        removed = eliminate_dead_branches(graph)
        assert removed == ["dead1", "dead2"]
        assert set(node.name for node in graph.nodes.values()) == \
            {"src", "live", "sink"}

    def test_sink_free_graph_untouched(self):
        graph = StreamGraph()
        source = graph.new_node("src", map_factory, 1, is_source=True)
        effectless = graph.new_node("m", map_factory, 1)
        graph.add_edge(source.node_id, effectless.node_id,
                       ForwardPartitioner())
        assert eliminate_dead_branches(graph) == []
        assert len(graph.nodes) == 2

    def test_fully_live_graph_untouched(self):
        graph = StreamGraph()
        source = graph.new_node("src", map_factory, 1, is_source=True)
        sink = graph.new_node("sink", map_factory, 1, is_sink=True)
        graph.add_edge(source.node_id, sink.node_id, ForwardPartitioner())
        assert eliminate_dead_branches(graph) == []

    def test_dead_branch_does_no_work_end_to_end(self):
        env = Environment()
        calls = {"dead": 0}

        def spy(value):
            calls["dead"] += 1
            return value

        source = env.from_collection(range(100))
        source.map(spy, name="dead-map")  # never sunk
        result = source.map(lambda v: v + 1, name="live-map").collect()
        env.execute()
        assert sorted(result.get()) == list(range(1, 101))
        assert calls["dead"] == 0  # eliminated, not executed

    def test_explain_reflects_elimination(self):
        env = Environment()
        source = env.from_collection([1])
        source.map(lambda v: v, name="orphaned")
        source.collect()
        plan = env.explain()
        assert "orphaned" not in plan.split("Physical plan")[1]
