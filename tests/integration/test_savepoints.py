"""Savepoints and rescaling: stop a job, resume the same program at a
different parallelism, verify exactly-once state."""

import pytest

from repro.api import Environment
from repro.cutty import PeriodicWindows
from repro.runtime.engine import EngineConfig, JobFailedError
from repro.windowing import CountAggregate

KEYS = 7
DATA = [("k%d" % (index % KEYS), 1) for index in range(4000)]
TRUE_COUNT = 4000 // KEYS  # per key (4000 divisible is not required)


def cancel_after(rounds_target, min_checkpoints=1):
    def hook(engine, rounds):
        return (rounds >= rounds_target
                and len(engine.checkpoint_store) >= min_checkpoints)
    return hook


def keyed_count_pipeline(env):
    # The source keeps parallelism 2 across runs (sources cannot
    # rescale); only the keyed stage follows env.parallelism.
    return (env.from_source(lambda: DATA, parallelism=2,
                            name="pinned-source")
            .key_by(lambda v: v[0])
            .count()
            .collect())


def run_first_half(parallelism):
    env = Environment(
        parallelism=parallelism,
        config=EngineConfig(checkpoint_interval_ms=5, elements_per_step=4,
                            cancel_hook=cancel_after(60)))
    keyed_count_pipeline(env)
    job = env.execute()
    assert job.cancelled
    return env.last_engine.create_savepoint()


def run_second_half(parallelism, savepoint):
    env = Environment(
        parallelism=parallelism,
        config=EngineConfig(elements_per_step=4))
    result = keyed_count_pipeline(env)
    env.execute(from_savepoint=savepoint)
    finals = {}
    for key, running in result.get():
        finals[key] = max(finals.get(key, 0), running)
    return finals


def true_counts():
    counts = {}
    for key, _ in DATA:
        counts[key] = counts.get(key, 0) + 1
    return counts


class TestSavepointResume:
    def test_resume_same_parallelism(self):
        savepoint = run_first_half(parallelism=2)
        finals = run_second_half(2, savepoint)
        assert finals == true_counts()

    def test_scale_up(self):
        savepoint = run_first_half(parallelism=2)
        finals = run_second_half(4, savepoint)
        assert finals == true_counts()

    def test_scale_down(self):
        savepoint = run_first_half(parallelism=3)
        finals = run_second_half(1, savepoint)
        assert finals == true_counts()

    def test_savepoint_without_checkpoint_rejected(self):
        env = Environment()
        env.from_collection([1]).collect()
        env.execute()
        with pytest.raises(JobFailedError, match="no completed checkpoint"):
            env.last_engine.create_savepoint()

    def test_source_rescale_rejected(self):
        savepoint = run_first_half(parallelism=2)
        env = Environment(
            parallelism=2, config=EngineConfig(elements_per_step=4))
        # Force a different *source* parallelism while keeping the rest.
        (env.from_source(lambda: DATA, parallelism=3,
                         name="pinned-source")
            .key_by(lambda v: v[0])
            .count()
            .collect())
        with pytest.raises(JobFailedError, match="cannot rescale"):
            env.execute(from_savepoint=savepoint)

    def test_missing_vertex_rejected(self):
        savepoint = run_first_half(parallelism=2)
        env = Environment(
            parallelism=2, config=EngineConfig(elements_per_step=4))
        env.from_collection(DATA, name="other-name").collect()
        with pytest.raises(JobFailedError, match="no state for operator"):
            env.execute(from_savepoint=savepoint)


class TestRescaleStatefulOperators:
    def _cutty_pipeline(self, env):
        data = [(("k%d" % (i % KEYS), 1), i * 2) for i in range(4000)]
        return (env.from_source(lambda: data, timestamped=True,
                                parallelism=1, name="pinned-source")
                .key_by(lambda v: v[0])
                .shared_windows(CountAggregate,
                                {"q": lambda: PeriodicWindows(400)})
                .collect())

    def _window_truth(self):
        data = [(("k%d" % (i % KEYS), 1), i * 2) for i in range(4000)]
        truth = {}
        for (key, _), ts in data:
            window = ts // 400 * 400
            truth[(key, window)] = truth.get((key, window), 0) + 1
        return truth

    def test_cutty_state_rescales(self):
        envA = Environment(
            parallelism=1,
            config=EngineConfig(checkpoint_interval_ms=5,
                                elements_per_step=4,
                                cancel_hook=cancel_after(60)))
        resultA = self._cutty_pipeline(envA)
        jobA = envA.execute()
        assert jobA.cancelled
        savepoint = envA.last_engine.create_savepoint()
        pre = {(r.key, r.start): r.value for r in resultA.get()}

        envB = Environment(
            parallelism=1, config=EngineConfig(elements_per_step=4))
        resultB = self._cutty_pipeline(envB)
        envB.execute(from_savepoint=savepoint)
        post = {(r.key, r.start): r.value for r in resultB.get()}

        combined = dict(pre)
        combined.update(post)  # duplicated windows agree; later wins
        assert combined == self._window_truth()

    def test_windowed_fold_scale_up(self):
        def pipeline(env):
            data = [(("k%d" % (i % KEYS), 1), i * 2) for i in range(4000)]
            from repro.windowing import TumblingEventTimeWindows
            return (env.from_source(lambda: data, timestamped=True,
                                    parallelism=2, name="pinned-source")
                    .key_by(lambda v: v[0])
                    .window(TumblingEventTimeWindows.of(400))
                    .aggregate(CountAggregate())
                    .collect())

        envA = Environment(
            parallelism=2,
            config=EngineConfig(checkpoint_interval_ms=5,
                                elements_per_step=4,
                                cancel_hook=cancel_after(60)))
        resultA = pipeline(envA)
        assert envA.execute().cancelled
        savepoint = envA.last_engine.create_savepoint()
        pre = {(r.key, r.window.start): r.value for r in resultA.get()}

        envB = Environment(
            parallelism=4, config=EngineConfig(elements_per_step=4))
        resultB = pipeline(envB)
        envB.execute(from_savepoint=savepoint)
        post = {(r.key, r.window.start): r.value for r in resultB.get()}

        combined = dict(pre)
        combined.update(post)
        assert combined == self._window_truth()
