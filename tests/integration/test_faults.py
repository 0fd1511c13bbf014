"""Integration tests for the failure domain: seeded chaos schedules,
restart strategies, poison-record quarantine and checkpoint-coordinator
hardening.

The headline property (`TestChaosSweep`): under randomized-but-seeded
fault schedules -- subtask crashes, dropped/duplicated channel records,
source stalls -- a keyed-window pipeline supervised by any restart
strategy converges to exactly the window results of a failure-free run.
"""

import pytest

from repro.api import Environment
from repro.runtime.engine import EngineConfig, JobFailedError
from repro.runtime.faults import (
    SOURCE_STALL,
    SUBTASK_FAILURE,
    ChaosInjector,
    FaultEvent,
)
from repro.runtime.restart import (
    ExponentialBackoffRestart,
    FailureRateRestart,
    FixedDelayRestart,
    NoRestart,
)
from repro.time.watermarks import WatermarkStrategy
from repro.windowing import CountAggregate, TumblingEventTimeWindows

CRASH_KINDS = {SUBTASK_FAILURE, "drop-record", "duplicate-record"}


def windowed_job(env):
    """Keyed tumbling-window counts over 1400 timestamped records."""
    data = [("k%d" % (i % 7), i) for i in range(1400)]
    strategy = WatermarkStrategy.for_monotonic_timestamps(lambda v: v[1])
    return (env.from_collection(data)
            .assign_timestamps_and_watermarks(strategy)
            .key_by(lambda v: v[0])
            .window(TumblingEventTimeWindows.of(100))
            .aggregate(CountAggregate())
            .collect())


def run_windowed_job(config):
    env = Environment(parallelism=2, config=config)
    results = windowed_job(env)
    job = env.execute()
    # The collect sink is at-least-once (and survives from-scratch
    # restarts), so compare as a set: window results are deterministic
    # per (key, window) and duplicates only come from replay.
    return set(results.get()), job


def sweep_strategy(seed):
    return [
        lambda: FixedDelayRestart(max_restarts=20, delay_ms=2),
        lambda: ExponentialBackoffRestart(initial_delay_ms=1, max_delay_ms=64),
        lambda: FailureRateRestart(max_failures_per_interval=20,
                                   interval_ms=100, delay_ms=2),
    ][seed % 3]()


class TestChaosSweep:
    def test_chaos_runs_converge_to_failure_free_state(self):
        baseline, baseline_job = run_windowed_job(
            EngineConfig(checkpoint_interval_ms=5, elements_per_step=4))
        assert baseline, "baseline job produced no window results"
        assert baseline_job.restarts == 0

        for seed in range(20):
            chaos = ChaosInjector.from_seed(seed, num_faults=3,
                                            first_round=20, last_round=350)
            config = EngineConfig(checkpoint_interval_ms=5,
                                  elements_per_step=4,
                                  restart_strategy=sweep_strategy(seed),
                                  chaos=chaos)
            state, job = run_windowed_job(config)
            assert state == baseline, (
                "seed %d diverged (applied: %r)" % (seed, chaos.applied))
            crashes = sum(1 for _, event in chaos.applied
                          if event.kind in CRASH_KINDS)
            assert job.restarts == crashes, (
                "seed %d: %d crash faults but %d restarts reported"
                % (seed, crashes, job.restarts))

    def test_chaos_sweep_exercises_every_fault_kind(self):
        kinds = set()
        for seed in range(20):
            for event in ChaosInjector.from_seed(seed, num_faults=3).schedule:
                kinds.add(event.kind)
        assert kinds == {"subtask-failure", "drop-record",
                         "duplicate-record", "source-stall"}

    def test_restart_counters_surface_in_metrics(self):
        chaos = ChaosInjector([FaultEvent(30, SUBTASK_FAILURE)])
        config = EngineConfig(checkpoint_interval_ms=5, elements_per_step=4,
                              restart_strategy=FixedDelayRestart(
                                  max_restarts=5, delay_ms=1),
                              chaos=chaos)
        state, job = run_windowed_job(config)
        assert job.restarts == 1
        assert job.counters.get("restarts") == 1
        assert job.counters.get("failures") == 1
        assert any(name.endswith("current_watermark") for name in job.gauges)


class TestRestartSupervision:
    def test_no_restart_strategy_fails_job(self):
        chaos = ChaosInjector([FaultEvent(5, SUBTASK_FAILURE)])
        env = Environment(
            config=EngineConfig(restart_strategy=NoRestart(), chaos=chaos))
        env.from_collection(range(500)).collect()
        with pytest.raises(JobFailedError):
            env.execute()

    def test_strategy_exhaustion_fails_job(self):
        # Three crashes but only two restart grants.
        chaos = ChaosInjector([FaultEvent(5, SUBTASK_FAILURE),
                               FaultEvent(10, SUBTASK_FAILURE),
                               FaultEvent(15, SUBTASK_FAILURE)])
        env = Environment(
            config=EngineConfig(restart_strategy=FixedDelayRestart(
                max_restarts=2, delay_ms=1), chaos=chaos))
        env.from_collection(range(5000)).collect()
        with pytest.raises(JobFailedError):
            env.execute()
        assert env.last_engine.restarts == 2

    def test_restart_before_any_checkpoint_replays_from_scratch(self):
        # Crash long before the first checkpoint: the supervisor must
        # redeploy from the job graph, not die on a missing checkpoint.
        chaos = ChaosInjector([FaultEvent(3, SUBTASK_FAILURE)])
        config = EngineConfig(checkpoint_interval_ms=1000,
                              elements_per_step=4,
                              restart_strategy=FixedDelayRestart(
                                  max_restarts=3, delay_ms=1),
                              chaos=chaos)
        state, job = run_windowed_job(config)
        baseline, _ = run_windowed_job(
            EngineConfig(checkpoint_interval_ms=1000, elements_per_step=4))
        assert state == baseline
        assert job.restarts == 1
        assert job.recoveries == 1


class TestPoisonQuarantine:
    def _fragile_job(self, env, values=50):
        def fragile(v):
            if v % 10 == 3:
                raise ValueError("cannot handle %d" % v)
            return v
        # rebalance() breaks operator chaining so the fragile map runs in
        # a processing task (quarantine guards the task input boundary).
        return (env.from_collection(range(values))
                .rebalance()
                .map(fragile, name="fragile-map")
                .collect())

    def test_poison_records_are_quarantined_not_fatal(self):
        env = Environment(
            config=EngineConfig(quarantine_threshold=10))
        result = self._fragile_job(env)
        job = env.execute()
        assert sorted(result.get()) == [v for v in range(50) if v % 10 != 3]
        assert len(job.dead_letters) == 5
        assert job.counters.get("dead_letters") == 5
        letter = job.dead_letters[0]
        assert letter.value == 3
        assert letter.error_type == "ValueError"
        assert "cannot handle 3" in letter.error
        assert "fragile-map" in letter.operator
        assert job.dead_letters_for(letter.operator)

    def test_without_quarantine_poison_is_fatal(self):
        env = Environment(config=EngineConfig())
        self._fragile_job(env)
        with pytest.raises(ValueError):
            env.execute()

    def test_escalation_above_threshold_restarts_then_fails(self):
        # 5 poison records against a threshold of 2: every attempt
        # escalates, so the strategy's restart budget drains and the job
        # fails -- with the restarts on record.
        env = Environment(
            config=EngineConfig(quarantine_threshold=2,
                                restart_strategy=FixedDelayRestart(
                                    max_restarts=2, delay_ms=1)))
        self._fragile_job(env)
        with pytest.raises(JobFailedError):
            env.execute()
        assert env.last_engine.restarts == 2

    def test_chaos_poison_lands_in_dead_letter_queue(self):
        from repro.runtime.faults import POISON_RECORD
        chaos = ChaosInjector([FaultEvent(5, POISON_RECORD, param=2)])
        env = Environment(
            config=EngineConfig(quarantine_threshold=5, elements_per_step=4,
                                chaos=chaos))
        result = (env.from_collection(range(100))
                  .rebalance()
                  .map(lambda v: v, name="plain-map")
                  .collect())
        job = env.execute()
        assert len(job.dead_letters) == 2
        assert all(letter.error_type == "PoisonPill"
                   for letter in job.dead_letters)
        assert len(result.get()) == 98

    def test_each_dead_letter_of_the_surviving_timeline_is_reported_once(self):
        # 10 is quarantined before the checkpoint the crash restores,
        # 850 after it and again on the replay: the letters ride in the
        # task snapshots, so the restore keeps the first and the replay
        # reports the second -- once.
        def fragile(v):
            if v in (10, 850):
                raise ValueError("cannot handle %d" % v)
            return v
        env = Environment(config=EngineConfig(
            quarantine_threshold=10, checkpoint_interval_ms=8,
            chaos=ChaosInjector([FaultEvent(28, SUBTASK_FAILURE)]),
            restart_strategy=FixedDelayRestart(max_restarts=3, delay_ms=1)))
        result = (env.from_collection(range(1000))
                  .rebalance()
                  .map(fragile, name="fragile-map")
                  .collect())
        job = env.execute()
        assert job.recoveries == 1 and job.checkpoints_completed >= 1
        assert [letter.value for letter in env.dead_letters] == [10, 850]
        assert [letter.value for letter in job.dead_letters] == [10, 850]
        assert set(result.get()) == set(range(1000)) - {10, 850}


class TestCoordinatorHardening:
    def test_wedged_coordinator_regression(self):
        # Regression: a pending checkpoint whose participant finishes
        # before acknowledging used to wedge the coordinator -- the
        # pending checkpoint never cleared, so no checkpoint ever
        # completed again.  The hardened coordinator aborts it and the
        # next trigger (minus the finished participant) completes.
        sabotaged = {"done": False}

        def sabotage(engine, rounds):
            if not sabotaged["done"] and engine.coordinator.pending is not None:
                victim = next(t for t in engine.tasks if not t.is_source)
                victim.finished = True
                sabotaged["done"] = True
            return False

        env = Environment(
            config=EngineConfig(checkpoint_interval_ms=5,
                                elements_per_step=4,
                                channel_capacity=4096,
                                failure_hook=sabotage))
        env.from_collection(range(300)).key_by(lambda v: v % 3).count().collect()
        job = env.execute()
        assert sabotaged["done"], "sabotage hook never fired"
        assert job.checkpoints_aborted >= 1
        assert job.checkpoints_completed >= 1, (
            "coordinator wedged: the aborted checkpoint blocked all "
            "subsequent checkpoints")

    def test_checkpoint_timeout_aborts_and_recovers(self):
        # A source stalled across several checkpoint intervals: each
        # pending checkpoint times out and aborts; once the stall lifts,
        # checkpointing resumes and the job finishes correctly.
        chaos = ChaosInjector([FaultEvent(10, SOURCE_STALL, param=120)])
        env = Environment(
            config=EngineConfig(checkpoint_interval_ms=5,
                                elements_per_step=4,
                                checkpoint_timeout_ms=20,
                                chaos=chaos))
        data = [("k%d" % (i % 5), 1) for i in range(2000)]
        result = (env.from_collection(data)
                  .key_by(lambda v: v[0])
                  .count()
                  .collect())
        job = env.execute()
        assert job.checkpoints_aborted >= 2
        assert job.checkpoints_completed >= 2
        finals = {}
        for key, running in result.get():
            finals[key] = max(finals.get(key, 0), running)
        assert finals == {("k%d" % i): 400 for i in range(5)}

    def test_tolerable_consecutive_checkpoint_failures(self):
        chaos = ChaosInjector([FaultEvent(10, SOURCE_STALL, param=300)])
        env = Environment(
            config=EngineConfig(checkpoint_interval_ms=5,
                                elements_per_step=4,
                                checkpoint_timeout_ms=20,
                                tolerable_consecutive_checkpoint_failures=1,
                                chaos=chaos))
        data = [("k%d" % (i % 5), 1) for i in range(2000)]
        env.from_collection(data).key_by(lambda v: v[0]).count().collect()
        with pytest.raises(JobFailedError, match="checkpoint failures"):
            env.execute()


class TestDiagnostics:
    def test_task_repr_shows_runtime_state(self):
        env = Environment(config=EngineConfig())
        env.from_collection(range(10)).key_by(lambda v: v % 2).count().collect()
        env.execute()
        reprs = [repr(task) for task in env.last_engine.tasks]
        assert all("finished" in r for r in reprs)
        processing = next(r for task, r in zip(env.last_engine.tasks, reprs)
                          if not task.is_source)
        assert "in_depths=" in processing
