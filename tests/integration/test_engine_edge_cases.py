"""Engine edge cases: partitioning modes, error propagation, guards."""

import pytest

from repro.api import Environment
from repro.plan.graph import GraphValidationError
from repro.runtime.engine import EngineConfig


class TestPartitioningModes:
    def test_broadcast_duplicates_to_every_subtask(self):
        env = Environment(parallelism=1)
        seen = []
        (env.from_collection([1, 2, 3])
            .broadcast()
            .map(lambda x: x, name="fanout")
            .add_sink(seen.append, parallelism=3))
        # broadcast edge: map stays parallelism 1 (same as source) unless
        # raised; raise it explicitly through a 3-way stage instead.
        env.execute()
        assert sorted(seen) == [1, 2, 3]

    def test_broadcast_to_wider_stage(self):
        env = Environment(parallelism=1)
        stream = env.from_collection([1, 2])
        # A 3-parallel stage fed by broadcast sees every record 3 times.
        node = env.graph.new_node(
            "wide", lambda: __import__("repro.runtime.operators",
                                       fromlist=["MapOperator"])
            .MapOperator(lambda x: x), 3)
        from repro.runtime.partition import BroadcastPartitioner
        env.graph.add_edge(stream.node.node_id, node.node_id,
                           BroadcastPartitioner())
        from repro.api.stream import DataStream
        result = DataStream(env, node).collect()
        env.execute()
        assert sorted(result.get()) == [1, 1, 1, 2, 2, 2]

    def test_global_routes_everything_to_subtask_zero(self):
        env = Environment(parallelism=4)
        observed_subtasks = set()

        def tag(value):
            return value

        result = (env.from_collection(range(40))
                  .global_()
                  .map(tag, name="funnel")
                  .collect())
        env.execute()
        engine = env.last_engine
        funnel_tasks = [task for task in engine.tasks
                        if "funnel" in task.vertex_name]
        counts = {task.subtask_index:
                  task.metrics.counters().get("records_in", 0)
                  for task in funnel_tasks}
        active = {index for index, count in counts.items() if count > 0}
        assert active == {0}
        assert sorted(result.get()) == list(range(40))

    def test_union_of_three_streams(self):
        env = Environment()
        a = env.from_collection([1])
        b = env.from_collection([2])
        c = env.from_collection([3])
        result = a.union(b, c).map(lambda x: x * 10).collect()
        env.execute()
        assert sorted(result.get()) == [10, 20, 30]


class TestErrorHandling:
    def test_operator_exception_propagates(self):
        env = Environment()
        def boom(value):
            raise RuntimeError("operator failure on %r" % value)
        env.from_collection([1]).map(boom).collect()
        with pytest.raises(RuntimeError, match="operator failure"):
            env.execute()

    def test_environment_executes_once(self):
        env = Environment()
        env.from_collection([1]).collect()
        env.execute()
        with pytest.raises(RuntimeError, match="already executed"):
            env.execute()

    def test_empty_environment_rejected(self):
        env = Environment()
        with pytest.raises(GraphValidationError):
            env.execute()

    def test_forward_edge_parallelism_mismatch_rejected(self):
        from repro.plan.graph import StreamGraph
        from repro.plan.chaining import build_job_graph
        from repro.runtime.engine import Engine
        from repro.runtime.operators import MapOperator
        from repro.runtime.partition import ForwardPartitioner

        graph = StreamGraph()
        source = graph.new_node("s", lambda: MapOperator(lambda x: x), 2,
                                is_source=True)
        narrow = graph.new_node("n", lambda: MapOperator(lambda x: x), 1,
                                allow_chaining=False)
        graph.add_edge(source.node_id, narrow.node_id, ForwardPartitioner())
        with pytest.raises(ValueError, match="forward edge"):
            Engine(build_job_graph(graph, chaining=False))

    def test_invalid_engine_config(self):
        with pytest.raises(ValueError):
            EngineConfig(channel_capacity=0)
        with pytest.raises(ValueError):
            EngineConfig(elements_per_step=0)
        with pytest.raises(ValueError):
            EngineConfig(checkpoint_interval_ms=0)


class TestScale:
    def test_deep_pipeline(self):
        env = Environment()
        stream = env.from_collection(range(50))
        for _ in range(20):
            stream = stream.map(lambda x: x + 1)
        result = stream.collect()
        env.execute()
        assert sorted(result.get()) == [x + 20 for x in range(50)]

    def test_wide_fanout(self):
        env = Environment()
        source = env.from_collection(range(10))
        results = [source.map(lambda x, k=k: x * k, name="m%d" % k).collect()
                   for k in range(1, 6)]
        env.execute()
        for k, result in enumerate(results, start=1):
            assert sorted(result.get()) == [x * k for x in range(10)]

    def test_many_keys(self):
        env = Environment(parallelism=4)
        n = 5000
        result = (env.from_collection(range(n))
                  .key_by(lambda v: "key-%d" % v)
                  .count()
                  .collect())
        env.execute()
        assert len(result.get()) == n
        assert all(count == 1 for _, count in result.get())

    def test_tiny_channels_large_volume(self):
        env = Environment(
            parallelism=3,
            config=EngineConfig(channel_capacity=1, elements_per_step=1))
        result = (env.from_collection(range(500))
                  .rebalance()
                  .map(lambda x: x)
                  .key_by(lambda v: v % 11)
                  .sum(lambda v: 1)
                  .collect())
        env.execute()
        assert len(result.get()) == 500


class TestDeterminism:
    def test_same_program_same_results_and_rounds(self):
        def run():
            env = Environment(parallelism=3)
            result = (env.from_collection(range(1000))
                      .key_by(lambda v: v % 17)
                      .sum(lambda v: v)
                      .collect())
            job = env.execute()
            return result.get(), job.rounds
        first_results, first_rounds = run()
        second_results, second_rounds = run()
        assert first_results == second_results
        assert first_rounds == second_rounds
