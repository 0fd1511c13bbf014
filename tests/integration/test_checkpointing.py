"""Integration tests: asynchronous barrier snapshotting and recovery."""

import pytest

from repro.api import Environment
from repro.runtime.engine import EngineConfig, InjectedFailure
from repro.runtime.faults import CRASH, FaultEvent, FaultInjector
from repro.runtime.restart import FixedDelayRestart


def keyed_count_job(env):
    data = [("k%d" % (i % 5), 1) for i in range(2000)]
    return (env.from_collection(data)
            .key_by(lambda v: v[0])
            .count()
            .collect())


def test_checkpoints_complete_during_execution():
    env = Environment(
        parallelism=2,
        config=EngineConfig(checkpoint_interval_ms=5, elements_per_step=4))
    keyed_count_job(env)
    job = env.execute()
    assert job.checkpoints_completed >= 1
    assert all(duration >= 0 for duration in job.checkpoint_durations_ms)


def test_recovery_restores_exactly_once_keyed_state():
    # Crash after at least one checkpoint completed.
    faults = FaultInjector([FaultEvent(CRASH, after_checkpoints=1,
                                       when=lambda view: view.rounds > 40)])
    env = Environment(
        parallelism=2,
        config=EngineConfig(checkpoint_interval_ms=5, elements_per_step=4,
                            faults=faults, restart_strategy=FixedDelayRestart(
                                max_restarts=3, delay_ms=0)))
    result = keyed_count_job(env)
    job = env.execute()
    assert faults.applied, "the crash never fired"
    assert job.restarts == 1
    # The keyed state is exactly-once: the maximum running count per key
    # equals the true count.
    finals = {}
    for key, running in result.get():
        finals[key] = max(finals.get(key, 0), running)
    assert finals == {("k%d" % i): 400 for i in range(5)}


def test_recovery_without_checkpoint_fails():
    def run(strategy):
        env = Environment(config=EngineConfig(
            restart_strategy=strategy, faults=FaultInjector([
                FaultEvent(CRASH, when=lambda view: view.rounds == 1)])))
        result = env.from_collection(range(100)).collect()
        return env, result

    # No strategy means no restart: the crash fails the job.
    env, _ = run(None)
    with pytest.raises(InjectedFailure):
        env.execute()
    # A strategy with no checkpoint to restore redeploys the job.
    env, result = run(FixedDelayRestart(max_restarts=1, delay_ms=0))
    job = env.execute()
    assert job.restarts == 1 and job.checkpoints_completed == 0
    # The collect sink keeps the crashed attempt's rows: compare as sets.
    assert set(result.get()) == set(range(100))


def test_multiple_recoveries():
    faults = FaultInjector([
        FaultEvent(CRASH, after_checkpoints=1,
                   when=lambda view, at=at: view.rounds == at)
        for at in (60, 120)])
    env = Environment(
        parallelism=2,
        config=EngineConfig(checkpoint_interval_ms=3, elements_per_step=2,
                            faults=faults, restart_strategy=FixedDelayRestart(
                                max_restarts=3, delay_ms=0)))
    result = keyed_count_job(env)
    job = env.execute()
    assert job.restarts == len(faults.applied) >= 1
    finals = {}
    for key, running in result.get():
        finals[key] = max(finals.get(key, 0), running)
    assert finals == {("k%d" % i): 400 for i in range(5)}


def test_checkpointing_disabled_by_default():
    env = Environment()
    env.from_collection(range(10)).collect()
    job = env.execute()
    assert job.checkpoints_completed == 0
