"""API-surface tests: environment helpers, plan explanation, validation."""

import pytest

from repro.api import Environment


class TestEnvironment:
    def test_generate_sequence(self):
        env = Environment(parallelism=2)
        result = env.generate_sequence(5, 15).collect()
        env.execute()
        assert sorted(result.get()) == list(range(5, 15))

    def test_generate_sequence_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.generate_sequence(10, 5)

    def test_invalid_parallelism(self):
        with pytest.raises(ValueError):
            Environment(parallelism=0)

    def test_explain_before_execute(self):
        env = Environment(parallelism=2)
        env.from_collection([1, 2]).map(lambda x: x).collect()
        plan = env.explain()
        assert "collection-source" in plan
        assert "parallelism=2" in plan

    def test_source_parallelism_override(self):
        env = Environment(parallelism=4)
        stream = env.from_source(lambda: range(10), parallelism=1,
                                 name="narrow")
        assert stream.node.parallelism == 1
        result = stream.collect()
        env.execute()
        assert sorted(result.get()) == list(range(10))

    def test_last_engine_available_after_execute(self):
        env = Environment()
        assert env.last_engine is None
        env.from_collection([1]).collect()
        env.execute()
        assert env.last_engine is not None
        assert all(task.finished for task in env.last_engine.tasks)

    def test_from_collection_is_replay_safe(self):
        """The source materialises the input, so a consumed iterator
        still yields a complete stream."""
        env = Environment(parallelism=2)
        result = env.from_collection(iter(range(20))).collect()
        env.execute()
        assert sorted(result.get()) == list(range(20))


class TestStreamNames:
    def test_custom_operator_names_in_plan(self):
        env = Environment()
        (env.from_collection([1])
         .map(lambda x: x, name="enrich")
         .filter(bool, name="drop-nulls")
         .collect(name="out"))
        plan = env.explain()
        for name in ("enrich", "drop-nulls", "out"):
            assert name in plan


class TestCollectVariants:
    def test_collect_with_timestamps(self):
        env = Environment()
        result = (env.from_collection([("a", 5), ("b", 9)],
                                      timestamped=True)
                  .collect(with_timestamps=True))
        env.execute()
        assert sorted(result.get()) == [("a", 5), ("b", 9)]

    def test_multiple_collects_one_job(self):
        env = Environment()
        source = env.from_collection(range(10))
        evens = source.filter(lambda x: x % 2 == 0).collect()
        odds = source.filter(lambda x: x % 2 == 1).collect()
        env.execute()
        assert sorted(evens.get()) == [0, 2, 4, 6, 8]
        assert sorted(odds.get()) == [1, 3, 5, 7, 9]

    def test_len_before_and_after(self):
        env = Environment()
        result = env.from_collection([1, 2, 3]).collect()
        assert len(result) == 0
        env.execute()
        assert len(result) == 3
