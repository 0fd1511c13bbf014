"""Savepoints and rescaling: stop a job, resume the same program at a
different parallelism -- on either backend, or across them -- and verify
exactly-once state."""

import multiprocessing
import time

import pytest

from repro.api import Environment
from repro.cutty import PeriodicWindows
from repro.runtime.engine import EngineConfig, JobFailedError
from repro.runtime.faults import CRASH, FaultEvent, FaultInjector
from repro.runtime.restart import FixedDelayRestart
from repro.windowing import CountAggregate

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="multiprocess backend requires the fork start method")

KEYS = 7
DATA = [("k%d" % (index % KEYS), 1) for index in range(4000)]
TRUE_COUNT = 4000 // KEYS  # per key (4000 divisible is not required)


def cancel_after(rounds_target, min_checkpoints=1):
    def hook(engine, rounds):
        return (rounds >= rounds_target
                and len(engine.checkpoint_store) >= min_checkpoints)
    return hook


QUIET_FLEET = {"num_workers": 2}


def paced(values, every=40, seconds=0.001):
    """``values``, slowly enough for wall-clock checkpoints to land."""
    for index, value in enumerate(values):
        if index % every == 0:
            time.sleep(seconds)
        yield value


def keyed_count_pipeline(env, source=lambda: DATA):
    # The source keeps parallelism 2 across runs (sources cannot
    # rescale); only the keyed stage follows env.parallelism.
    return (env.from_source(source, parallelism=2, name="pinned-source")
            .key_by(lambda v: v[0])
            .count()
            .collect())


def run_first_half(parallelism, backend="cooperative"):
    if backend == "cooperative":
        config = EngineConfig(checkpoint_interval_ms=5, elements_per_step=4,
                              cancel_hook=cancel_after(60))
        source = lambda: DATA
    else:
        # No hook reaches into worker processes: the job runs out, and
        # its last completed checkpoint is a cut mid-stream all the same.
        config = EngineConfig(backend=backend, checkpoint_interval_ms=10,
                              elements_per_step=4, **QUIET_FLEET)
        source = lambda: paced(DATA)
    env = Environment(parallelism=parallelism, config=config)
    keyed_count_pipeline(env, source)
    job = env.execute()
    assert job.cancelled == (backend == "cooperative")
    return env.last_engine.create_savepoint()


def final_counts(result):
    finals = {}
    for key, running in result.get():
        finals[key] = max(finals.get(key, 0), running)
    return finals


def run_second_half(parallelism, savepoint, backend="cooperative"):
    env = Environment(
        parallelism=parallelism,
        config=EngineConfig(backend=backend, elements_per_step=4,
                            **QUIET_FLEET))
    result = keyed_count_pipeline(env)
    env.execute(from_savepoint=savepoint)
    return final_counts(result)


def source_offsets(savepoint):
    return sum(snapshot.operator_state["offset"]
               for snapshot in savepoint.snapshots_for("pinned-source"))


def source_records_out(env):
    return sum(row["records_out"] for row in env.job_report()["operators"]
               if row["operator"].startswith("pinned-source"))


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


@needs_fork
class TestSavepointsAcrossBackends:
    """The restore map is backend-neutral: a savepoint taken on one
    backend resumes on the other, also at another parallelism of the
    stateful vertex."""

    @pytest.mark.parametrize("before, after", [(2, 3), (3, 1)])
    @pytest.mark.parametrize("first, second", [
        ("multiprocess", "multiprocess"),
        ("multiprocess", "cooperative"),
        ("cooperative", "multiprocess"),
    ])
    def test_rescaled_resume(self, first, second, before, after):
        savepoint = run_first_half(before, backend=first)
        assert 0 < source_offsets(savepoint) < len(DATA)
        assert run_second_half(after, savepoint, second) == true_counts()


class TestFailureBeforeTheFirstCheckpointOfAResumedJob:
    """"From scratch" means from what the job was deployed with: a
    resumed job that fails before its own first checkpoint goes back to
    the savepoint, not to offset zero."""

    def test_cooperative_restart_keeps_the_savepoint(self):
        savepoint = run_first_half(parallelism=2)
        read_before_crash = []

        def at_round_5(view):
            if view.rounds < 5:
                return False
            read_before_crash.append(sum(
                task.metrics.counters().get("records_out", 0)
                for task in view.tasks if task.is_source))
            return True

        env = Environment(parallelism=2, config=EngineConfig(
            elements_per_step=4, checkpoint_interval_ms=1000,
            restart_strategy=FixedDelayRestart(max_restarts=3, delay_ms=1),
            faults=FaultInjector([FaultEvent(CRASH, when=at_round_5)])))
        result = keyed_count_pipeline(env)
        job = env.execute(from_savepoint=savepoint)
        assert job.restarts == 1 and job.checkpoints_completed == 0
        assert final_counts(result) == true_counts()
        # Counters count every attempt: what the failed one read, then
        # the redeployed sources read what the savepoint still owed.
        assert read_before_crash[0] > 0
        assert source_records_out(env) == (
            read_before_crash[0] + len(DATA) - source_offsets(savepoint))

    @needs_fork
    def test_multiprocess_respawn_keeps_the_savepoint(self):
        savepoint = run_first_half(parallelism=2)
        owed = len(DATA) - source_offsets(savepoint)
        # Crash worker 0 a little into the first attempt.
        faults = FaultInjector([FaultEvent(CRASH, after_records=40,
                                           subtask="pinned-source")])
        env = Environment(parallelism=2, config=EngineConfig(
            backend="multiprocess", num_workers=2, elements_per_step=4,
            checkpoint_interval_ms=60_000, faults=faults,
            restart_strategy=FixedDelayRestart(max_restarts=3, delay_ms=0)))
        result = keyed_count_pipeline(env, lambda: paced(DATA, every=10))
        job = env.execute(from_savepoint=savepoint)
        assert faults.applied and job.restarts >= 1
        assert job.checkpoints_completed == 0
        assert final_counts(result) == true_counts()
        assert source_records_out(env) == owed
        # One running count per record read: the killed attempt's
        # partial collect output was discarded with it.
        assert len(result.get()) == owed


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
