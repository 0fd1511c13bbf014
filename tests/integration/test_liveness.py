"""Busy is not dead: healthy-but-slow jobs on worker processes.

The supervisor fails a worker that is dead (its control pipe hit EOF)
or hung (the kernel reports it stopped), never one that is merely busy.
Each job here keeps a worker busy for a long stretch without a pause --
a UDF call that sleeps, more workers than cores, every window of every
key firing in one round -- at default liveness settings, with a
restart strategy that would quietly absorb a false declaration.  Each
must finish on its first fleet, declare no failure, and produce the
cooperative run's output.
"""

import multiprocessing
import time

import pytest

from repro.api.environment import Environment
from repro.connectors.sinks import TransactionalTextFileSink
from repro.runtime.engine import EngineConfig
from repro.runtime.restart import FixedDelayRestart
from repro.time.watermarks import WatermarkStrategy
from repro.windowing import CountAggregate, TumblingEventTimeWindows

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="multiprocess backend requires the fork start method")


def _run_both(build, num_workers=2, **config):
    """``build(env)`` on the cooperative backend, then on worker
    processes; returns both outputs, the fleet's job result and its
    report."""
    outputs = []
    for backend in ("cooperative", "multiprocess"):
        workers = {}
        if backend == "multiprocess":
            workers = dict(backend=backend, num_workers=num_workers,
                           restart_strategy=FixedDelayRestart(
                               max_restarts=3, delay_ms=0))
        env = Environment(parallelism=num_workers,
                          config=EngineConfig(**workers, **config))
        read = build(env)
        job = env.execute()
        outputs.append(sorted(read()))
    return outputs[0], outputs[1], job, env.job_report()


def _assert_never_failed(job, report):
    assert job.restarts == 0
    assert report["fleet"]["watchdog"]["failures_declared"] == 0


def test_a_udf_call_longer_than_any_deadline_is_busy():
    """One map call sleeps 1.5 s: the worker running it answers nothing
    for that long, and is still alive."""
    def slow_once(value):
        if value == 100:
            time.sleep(1.5)
        return value

    def build(env):
        result = (env.from_collection(range(400))
                  .map(slow_once, name="slow")
                  # v % 10 fixes v % 2, so each key has one source
                  # subtask and its running sums one order.
                  .key_by(lambda v: v % 10)
                  .sum().collect())
        return result.get

    expected, got, job, report = _run_both(build)

    assert got == expected
    _assert_never_failed(job, report)


def test_two_phase_keyed_windows_on_more_workers_than_cores(tmp_path):
    """The keyed-window job into an exactly-once sink, checkpoints on,
    on four workers: on a small host every worker spends long stretches
    descheduled, which is busy, not hung."""
    events = [("k%d" % (index % 97), index) for index in range(40_000)]

    def build(env):
        path = str(tmp_path / ("windows-%s.txt" % env.config.backend))
        strategy = WatermarkStrategy.for_bounded_out_of_orderness(
            lambda value: value[1], 50)
        (env.from_collection(events)
            .assign_timestamps_and_watermarks(strategy)
            .key_by(lambda value: value[0])
            .window(TumblingEventTimeWindows.of(500))
            .aggregate(CountAggregate())
            .add_sink(TransactionalTextFileSink(path, formatter=repr)))

        def read():
            with open(path) as handle:
                return handle.read().splitlines()
        return read

    expected, got, job, report = _run_both(
        build, num_workers=4, checkpoint_interval_ms=20,
        checkpoint_dir=str(tmp_path / "chk"))

    assert got == expected
    assert len(expected) == 97 * 80
    _assert_never_failed(job, report)


def test_every_window_of_every_key_fires_at_the_final_watermark():
    """A fire storm: the watermark bound outlasts the input, so nothing
    fires until end of input, and then every window of every key fires
    at once."""
    events = [(index % 100, index) for index in range(40_000)]

    def build(env):
        strategy = WatermarkStrategy.for_bounded_out_of_orderness(
            lambda value: value[1], len(events))
        result = (env.from_collection(events)
                  .assign_timestamps_and_watermarks(strategy)
                  .key_by(lambda value: value[0])
                  .window(TumblingEventTimeWindows.of(100))
                  .aggregate(CountAggregate()).collect())
        return result.get

    expected, got, job, report = _run_both(build)

    assert got == expected
    assert len(expected) == 100 * 400
    _assert_never_failed(job, report)
