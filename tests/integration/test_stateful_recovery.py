"""Recovery of stateful operators: window state, Cutty state, timers.

The E10 bench recovers a simple keyed count; these tests exercise the
harder cases -- in-flight window accumulators, Cutty slice trees and
pending-window registries, and registered timers all surviving a crash.
"""

import pytest

from repro.api import Environment
from repro.cutty import PeriodicWindows
from repro.runtime.engine import EngineConfig
from repro.runtime.restart import FixedDelayRestart
from repro.testing.oracles import crash_once
from repro.windowing import CountAggregate, TumblingEventTimeWindows


def window_counts(results):
    counts = {}
    for result in results:
        key = (result.key, getattr(result, "window", None) and
               (result.window.start, result.window.end)
               or (result.start, result.end))
        counts[key] = max(counts.get(key, 0), result.value)
    return counts


DATA = [(("k%d" % (i % 4), 1), i * 3) for i in range(3000)]


def restart():
    return FixedDelayRestart(max_restarts=3, delay_ms=0)


def run_window_job(faults=None):
    env = Environment(
        parallelism=2,
        config=EngineConfig(checkpoint_interval_ms=4, elements_per_step=4,
                            faults=faults, restart_strategy=restart()))
    results = (env.from_collection(DATA, timestamped=True)
               .key_by(lambda v: v[0])
               .window(TumblingEventTimeWindows.of(300))
               .aggregate(CountAggregate())
               .collect())
    job = env.execute()
    return job, window_counts(results.get())


def run_cutty_job(faults=None):
    env = Environment(
        parallelism=1,
        config=EngineConfig(checkpoint_interval_ms=4, elements_per_step=4,
                            faults=faults, restart_strategy=restart()))
    results = (env.from_collection(DATA, timestamped=True)
               .key_by(lambda v: v[0])
               .shared_windows(CountAggregate,
                               {"q": lambda: PeriodicWindows(300)})
               .collect())
    job = env.execute()
    return job, window_counts(results.get())


class TestWindowOperatorRecovery:
    def test_window_state_survives_crash(self):
        _, ground_truth = run_window_job()
        faults = crash_once(min_checkpoints=1, at_round=80)
        job, recovered = run_window_job(faults=faults)
        assert faults.applied, "crash never injected"
        assert job.restarts == 1
        assert recovered == ground_truth

    def test_crash_late_in_the_job(self):
        faults = crash_once(min_checkpoints=3, at_round=400)
        _, ground_truth = run_window_job()
        job, recovered = run_window_job(faults=faults)
        assert faults.applied
        assert recovered == ground_truth


class TestCuttyOperatorRecovery:
    def test_cutty_slices_and_pending_windows_survive_crash(self):
        _, ground_truth = run_cutty_job()
        faults = crash_once(min_checkpoints=1, at_round=80)
        job, recovered = run_cutty_job(faults=faults)
        assert faults.applied, "crash never injected"
        assert job.restarts == 1
        assert recovered == ground_truth
