"""Integration tests for the failure domain: seeded chaos schedules,
restart strategies, poison records and checkpoint-coordinator
hardening.

The headline property (`TestChaosSweep`): under randomized-but-seeded
fault schedules -- subtask crashes, dropped/duplicated channel records,
source stalls -- a keyed-window pipeline supervised by any restart
strategy converges to exactly the window results of a failure-free run,
on either backend, from the same schedule.
"""

import multiprocessing
import time

import pytest

from repro.api import Environment
from repro.connectors.sinks import TransactionalTextFileSink
from repro.runtime.engine import EngineConfig, JobFailedError
from repro.runtime.faults import (
    CRASH,
    DROP,
    DUPLICATE,
    POISON,
    RESTARTING_KINDS,
    STALL,
    FaultEvent,
    FaultInjector,
    PoisonPill,
)
from repro.runtime.restart import (
    ExponentialBackoffRestart,
    FailureRateRestart,
    FixedDelayRestart,
    NoRestart,
)
from repro.time.watermarks import WatermarkStrategy
from repro.windowing import CountAggregate, TumblingEventTimeWindows

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="multiprocess backend requires the fork start method")

MULTIPROCESS = dict(backend="multiprocess", num_workers=2)


def at_round(rounds):
    """A ``when`` trigger: the cooperative scheduler reached ``rounds``."""
    return lambda view: view.rounds >= rounds


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


def chaos_sweep(**config):
    """The 20-seed sweep: every seed converges to the failure-free window
    results, with one restart per fault that crashes on the backend."""
    backend = config.get("backend", "cooperative")
    baseline, baseline_job = run_windowed_job(
        EngineConfig(checkpoint_interval_ms=5, elements_per_step=4))
    assert baseline, "baseline job produced no window results"
    assert baseline_job.restarts == 0

    for seed in range(20):
        faults = FaultInjector.from_seed(seed, num_faults=3,
                                         first_records=20, last_records=600)
        state, job = run_windowed_job(EngineConfig(
            checkpoint_interval_ms=5, elements_per_step=4,
            restart_strategy=sweep_strategy(seed), faults=faults, **config))
        assert state == baseline, (
            "seed %d diverged (applied: %r)" % (seed, faults.applied))
        crashes = sum(1 for event in faults.applied
                      if event.kind in RESTARTING_KINDS[backend])
        assert job.restarts == crashes, (
            "seed %d: %d crash faults but %d restarts reported"
            % (seed, crashes, job.restarts))


class TestChaosSweep:
    def test_chaos_runs_converge_to_failure_free_state(self):
        chaos_sweep()

    @needs_fork
    def test_chaos_runs_converge_on_worker_processes(self):
        chaos_sweep(**MULTIPROCESS)

    def test_chaos_sweep_exercises_every_fault_kind(self):
        kinds = set()
        for seed in range(20):
            for event in FaultInjector.from_seed(seed, num_faults=3).schedule:
                kinds.add(event.kind)
        assert kinds == {"crash", "drop", "duplicate", "stall"}

    def test_restart_counters_surface_in_metrics(self):
        faults = FaultInjector([FaultEvent(CRASH, when=at_round(30))])
        config = EngineConfig(checkpoint_interval_ms=5, elements_per_step=4,
                              restart_strategy=FixedDelayRestart(
                                  max_restarts=5, delay_ms=1),
                              faults=faults)
        state, job = run_windowed_job(config)
        assert job.restarts == 1
        assert job.counters.get("restarts") == 1
        assert job.counters.get("failures") == 1
        assert any(name.endswith("current_watermark") for name in job.gauges)


# -- one vocabulary, both backends -------------------------------------------

N = 600
#: Even, so each key's records come from one source subtask and every
#: running total is deterministic: the 2PC file can be demanded exactly.
KEYS = 14
BACKENDS = [pytest.param({}, id="cooperative"),
            pytest.param(MULTIPROCESS, id="multiprocess", marks=needs_fork)]


def _throttle(value):
    """Keep both source subtasks live long enough for checkpoints to
    seal on worker processes."""
    if value % 4 < 2:
        time.sleep(0.001)
    return value


def run_fold_job(path, **config):
    """Running per-key sums into a two-phase-commit file sink."""
    env = Environment(parallelism=2, config=EngineConfig(
        elements_per_step=4,
        restart_strategy=FixedDelayRestart(max_restarts=5, delay_ms=0),
        **config))
    (env.from_collection(range(N))
        .map(_throttle, name="throttle")
        .key_by(lambda v: v % KEYS)
        .fold(0, lambda acc, value: acc + value, name="fold")
        .add_sink(TransactionalTextFileSink(
            str(path), formatter=lambda pair: "%d:%d" % pair)))
    job = env.execute()
    return sorted(path.read_text().splitlines()), job


def expected_lines():
    """What the fold job writes."""
    lines = []
    for key in range(KEYS):
        total = 0
        for value in range(key, N, KEYS):
            total += value
            lines.append("%d:%d" % (key, total))
    return sorted(lines)


class TestFaultVocabulary:
    @pytest.mark.parametrize("config", BACKENDS)
    @pytest.mark.parametrize("kind", [CRASH, STALL, POISON, DROP, DUPLICATE])
    def test_every_kind_converges_on_both_backends(self, tmp_path, kind,
                                                   config):
        backend = config.get("backend", "cooperative")
        faults = FaultInjector([FaultEvent(
            kind, after_checkpoints=1, after_records=100, target=1,
            subtask="throttle" if kind == STALL else "fold",
            param=2 if kind == POISON else 50)])
        lines, job = run_fold_job(
            tmp_path / "out.txt", faults=faults,
            checkpoint_interval_ms=20 if config else 5, **config)

        assert faults.applied == faults.schedule, "the fault never fired"
        # A poisoned record fails its task like any raising callback.
        assert job.restarts == (kind in RESTARTING_KINDS[backend]
                                or kind == POISON)
        assert lines == expected_lines()

    @pytest.mark.parametrize("config", BACKENDS)
    def test_crash_before_the_first_checkpoint_restarts_from_the_deployment(
            self, tmp_path, config):
        # Regression: a crash injected before any checkpoint completed
        # used to fail the job even with a restart strategy configured.
        faults = FaultInjector([FaultEvent(CRASH, after_records=50,
                                           subtask="fold")])
        lines, job = run_fold_job(tmp_path / "out.txt", faults=faults,
                                  checkpoint_interval_ms=60_000, **config)
        assert faults.applied and job.checkpoints_completed == 0
        assert job.restarts == 1
        assert lines == expected_lines()


class TestRestartSupervision:
    def test_no_restart_strategy_fails_job(self):
        faults = FaultInjector([FaultEvent(CRASH, when=at_round(5))])
        env = Environment(
            config=EngineConfig(restart_strategy=NoRestart(), faults=faults))
        env.from_collection(range(500)).collect()
        with pytest.raises(JobFailedError):
            env.execute()

    def test_strategy_exhaustion_fails_job(self):
        # Three crashes but only two restart grants.
        faults = FaultInjector([FaultEvent(CRASH, when=at_round(rounds))
                                for rounds in (5, 10, 15)])
        env = Environment(
            config=EngineConfig(restart_strategy=FixedDelayRestart(
                max_restarts=2, delay_ms=1), faults=faults))
        env.from_collection(range(5000)).collect()
        with pytest.raises(JobFailedError):
            env.execute()
        assert env.last_engine.restarts == 2

    def test_restart_before_any_checkpoint_replays_from_scratch(self):
        # Crash long before the first checkpoint: the supervisor must
        # redeploy from the job graph, not die on a missing checkpoint.
        faults = FaultInjector([FaultEvent(CRASH, when=at_round(3))])
        config = EngineConfig(checkpoint_interval_ms=1000,
                              elements_per_step=4,
                              restart_strategy=FixedDelayRestart(
                                  max_restarts=3, delay_ms=1),
                              faults=faults)
        state, job = run_windowed_job(config)
        baseline, _ = run_windowed_job(
            EngineConfig(checkpoint_interval_ms=1000, elements_per_step=4))
        assert state == baseline
        assert job.restarts == 1


class TestPoison:
    def test_poison_restarts_under_a_strategy(self):
        def run(strategy):
            faults = FaultInjector([FaultEvent(POISON, when=at_round(5),
                                               param=2)])
            env = Environment(config=EngineConfig(
                elements_per_step=4, checkpoint_interval_ms=5,
                restart_strategy=strategy, faults=faults))
            result = (env.from_collection(range(100))
                      .rebalance()
                      .map(lambda v: v, name="plain-map")
                      .collect())
            return env, result

        env, _ = run(None)
        with pytest.raises(PoisonPill):
            env.execute()
        env, result = run(FixedDelayRestart(max_restarts=3, delay_ms=0))
        job = env.execute()
        assert job.restarts == 1
        assert set(result.get()) == set(range(100))


class TestCoordinatorHardening:
    def test_wedged_coordinator_regression(self):
        # Regression: a pending checkpoint whose participant finishes
        # before acknowledging used to wedge the coordinator -- the
        # pending checkpoint never cleared, so no checkpoint ever
        # completed again.  The hardened coordinator aborts it and the
        # next trigger (minus the finished participant) completes.
        sabotaged = {"done": False}

        def sabotage(engine, rounds):
            # An observer, not a fault: it never stops the job.
            if not sabotaged["done"] and engine.coordinator.pending is not None:
                victim = next(t for t in engine.tasks if not t.is_source)
                victim.finished = True
                sabotaged["done"] = True
            return False

        env = Environment(
            config=EngineConfig(checkpoint_interval_ms=5,
                                elements_per_step=4,
                                channel_capacity=4096,
                                cancel_hook=sabotage))
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
        faults = FaultInjector([FaultEvent(STALL, when=at_round(10),
                                           param=120)])
        env = Environment(
            config=EngineConfig(checkpoint_interval_ms=5,
                                elements_per_step=4,
                                checkpoint_timeout_ms=20,
                                faults=faults))
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
        faults = FaultInjector([FaultEvent(STALL, when=at_round(10),
                                           param=300)])
        env = Environment(
            config=EngineConfig(checkpoint_interval_ms=5,
                                elements_per_step=4,
                                checkpoint_timeout_ms=20,
                                tolerable_consecutive_checkpoint_failures=1,
                                faults=faults))
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
