"""Recovery of stateful operators: window state, Cutty state, timers.

The E10 bench recovers a simple keyed count; these tests exercise the
harder cases -- in-flight window accumulators, Cutty slice trees and
pending-window registries, and registered timers all surviving a crash.
"""

import pytest

from repro.api import Environment
from repro.cutty import PeriodicWindows
from repro.runtime.engine import EngineConfig
from repro.windowing import CountAggregate, TumblingEventTimeWindows


def make_failure_hook(min_checkpoints=1, at_round=80):
    fired = {"done": False}

    def hook(engine, rounds):
        if (not fired["done"]
                and len(engine.checkpoint_store) >= min_checkpoints
                and rounds >= at_round):
            fired["done"] = True
            return True
        return False

    hook.fired = fired
    return hook


def window_counts(results):
    counts = {}
    for result in results:
        key = (result.key, getattr(result, "window", None) and
               (result.window.start, result.window.end)
               or (result.start, result.end))
        counts[key] = max(counts.get(key, 0), result.value)
    return counts


DATA = [(("k%d" % (i % 4), 1), i * 3) for i in range(3000)]


def run_window_job(failure_hook=None):
    env = Environment(
        parallelism=2,
        config=EngineConfig(checkpoint_interval_ms=4, elements_per_step=4,
                            failure_hook=failure_hook))
    results = (env.from_collection(DATA, timestamped=True)
               .key_by(lambda v: v[0])
               .window(TumblingEventTimeWindows.of(300))
               .aggregate(CountAggregate())
               .collect())
    job = env.execute()
    return job, window_counts(results.get())


def run_cutty_job(failure_hook=None):
    env = Environment(
        parallelism=1,
        config=EngineConfig(checkpoint_interval_ms=4, elements_per_step=4,
                            failure_hook=failure_hook))
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
        hook = make_failure_hook()
        job, recovered = run_window_job(failure_hook=hook)
        assert hook.fired["done"], "crash never injected"
        assert job.recoveries == 1
        assert recovered == ground_truth

    def test_crash_late_in_the_job(self):
        hook = make_failure_hook(min_checkpoints=3, at_round=400)
        _, ground_truth = run_window_job()
        job, recovered = run_window_job(failure_hook=hook)
        assert hook.fired["done"]
        assert recovered == ground_truth


class TestCuttyOperatorRecovery:
    def test_cutty_slices_and_pending_windows_survive_crash(self):
        _, ground_truth = run_cutty_job()
        hook = make_failure_hook()
        job, recovered = run_cutty_job(failure_hook=hook)
        assert hook.fired["done"], "crash never injected"
        assert job.recoveries == 1
        assert recovered == ground_truth
