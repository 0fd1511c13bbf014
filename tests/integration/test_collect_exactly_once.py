"""``collect()`` is exactly-once on both backends: it runs the
two-phase-commit protocol of the file sinks over a list, so a crash, a
respawned fleet or a savepoint resume leaves each committed row in the
result once.

* the probe: a mapped sequence crashed once after a sealed checkpoint
  returns each row once (the at-least-once sink returned 6,052 rows on
  cooperative and over 7,000 on two workers);
* a savepoint resumed into a fresh ``Environment`` and crashed after a
  checkpoint of its own: the new result holds exactly the rows the
  resumed job produced, and with the stopped job's result it makes the
  uninterrupted output;
* the crash-point sweep: a keyed-window job writing to ``collect()`` and
  to a 2PC file, crashed at every ``REPRO_CRASH_STRIDE``-th record (a
  coarser stride on worker processes unless the variable is set), gives
  the clean run's list and bytes at every point.
"""

import multiprocessing
import os
import time

import pytest

from repro.api import Environment
from repro.connectors.sinks import ListSink, TransactionalTextFileSink
from repro.runtime import multiprocess
from repro.runtime.engine import EngineConfig
from repro.runtime.faults import CRASH, FaultEvent, FaultInjector
from repro.runtime.restart import FixedDelayRestart
from repro.time.watermarks import WatermarkStrategy
from repro.windowing import CountAggregate, TumblingEventTimeWindows

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="multiprocess backend requires the fork start method")

COOPERATIVE = dict(checkpoint_interval_ms=5)
TWO_WORKERS = dict(backend="multiprocess", num_workers=2,
                   checkpoint_interval_ms=5)
BACKENDS = [pytest.param(COOPERATIVE, id="cooperative"),
            pytest.param(TWO_WORKERS, id="multiprocess", marks=needs_fork)]


def paced(every, seconds=0.001):
    """A map function that sleeps every ``every``-th value, so wall-clock
    checkpoints seal while a job on worker processes still runs."""
    def pace(value):
        if value % every == 0:
            time.sleep(seconds)
        return value
    return pace


def strategy():
    return FixedDelayRestart(max_restarts=3, delay_ms=0)


# -- the probe -----------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_crash_after_a_sealed_checkpoint_returns_each_row_once(backend):
    faults = FaultInjector([FaultEvent(CRASH, after_checkpoints=1,
                                       after_records=3000)])
    env = Environment(parallelism=2, config=EngineConfig(
        faults=faults, restart_strategy=strategy(), **backend))
    result = (env.generate_sequence(0, 6000)
              .map(paced(20))
              .map(lambda value: value * 2)
              .collect())
    job = env.execute()
    assert faults.applied and job.restarts == 1
    assert sorted(result.get()) == list(range(0, 12000, 2))


# -- a savepoint resumed into a fresh environment, then crashed -----------------


N = 1200


def numbers(env, name="numbers"):
    # The exchange gives "triple" a task of its own, which the crash
    # counts records into.
    return (env.from_collection(range(N), name=name)
            .map(paced(10), name="pace")
            .rebalance()
            .map(lambda value: value * 3, name="triple"))


def stopped_run():
    """The rows a cooperative job committed before it stopped after two
    sealed checkpoints, and the savepoint of the latest."""
    env = Environment(config=EngineConfig(
        checkpoint_interval_ms=5, elements_per_step=4,
        cancel_hook=lambda engine, rounds: engine.coordinator.completed >= 2))
    result = numbers(env).collect()
    assert env.execute().cancelled
    return result.get(), env.last_engine.create_savepoint()


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_resumed_result_holds_the_resumed_rows_once(backend):
    before, savepoint = stopped_run()
    assert 0 < len(before) < N
    faults = FaultInjector([FaultEvent(CRASH, after_checkpoints=1,
                                       after_records=300,
                                       subtask="triple")])
    env = Environment(config=EngineConfig(
        elements_per_step=4, faults=faults, restart_strategy=strategy(),
        **backend))
    result = numbers(env).collect()
    job = env.execute(from_savepoint=savepoint)
    assert faults.applied and job.restarts == 1
    assert job.checkpoints_completed >= 1
    # The resumed job's own rows, once each: no row of the stopped job's
    # result, none twice after the crash truncated this result.
    assert before + result.get() == [value * 3 for value in range(N)]


def test_a_savepoint_of_another_result_starts_the_list_over():
    """The snapshot names the result it counts: restored into another
    one, whose list is longer than the committed length, nothing of the
    old result's pending rows is appended and nothing is kept."""
    old = ListSink([])
    old.open()
    old.write("a")
    old.pre_commit(1)
    old.commit_through(1)
    old.write("b")
    old.pre_commit(2)
    state = old.snapshot()
    assert state["length"] == 1 and state["pending"] == {2: ["b"]}

    rows = ["stale", "rows", "of", "a", "crashed", "attempt"]
    fresh = ListSink(rows)
    fresh.recover(state)
    assert rows == []
    old.recover(state)  # the same result: truncate to 1, commit 2
    assert old.rows == ["a", "b"]
    del state["target"]  # a checkpoint that names no result
    old.recover(state)
    assert old.rows == []


def test_a_list_shorter_than_its_checkpoint_refuses_to_restore():
    sink = ListSink([])
    sink.open()
    sink.write("a")
    sink.pre_commit(1)
    sink.commit_through(1)
    state = sink.snapshot()
    sink.rows.clear()
    with pytest.raises(RuntimeError, match="committed 1 rows but the "
                                           "target holds 0"):
        sink.recover(state)


@needs_fork
def test_a_commit_larger_than_a_control_frame_arrives_whole(monkeypatch):
    """With checkpoints off the whole output is one commit at end of
    input; it crosses the control pipe in chunks, each under the frame
    cap (lowered here to 1 MiB so the output exceeds it)."""
    monkeypatch.setattr(multiprocess, "_MAX_FRAME", 1 << 20)
    rows = ["%06d" % value + "x" * 100 for value in range(12000)]
    env = Environment(config=EngineConfig(backend="multiprocess",
                                          num_workers=1))
    result = env.from_collection(rows).collect()
    env.execute()
    assert result.get() == rows


# -- the crash-point sweep ------------------------------------------------------


SWEEP_N = 240
KEYS = 3


def _strides():
    """Crash every this many records: ``REPRO_CRASH_STRIDE`` on both
    backends (CI's nightly runs 1), else 20 on cooperative and 80 on
    worker processes."""
    stride = os.environ.get("REPRO_CRASH_STRIDE")
    if stride:
        return int(stride), int(stride)
    return 20, 80


def pace_pair(pair):
    if pair[1] % 4 == 0:
        time.sleep(0.0005)
    return pair


def window_job(path, backend, faults=None):
    """Keyed tumbling counts, formatted once and written to both a
    ``collect()`` result and a 2PC file; parallelism 1, so both orders
    are the program's."""
    env = Environment(config=EngineConfig(
        elements_per_step=4, faults=faults,
        restart_strategy=strategy() if faults else None, **backend))
    rows = (env.from_collection([(i % KEYS, i) for i in range(SWEEP_N)])
            .assign_timestamps_and_watermarks(
                WatermarkStrategy.for_monotonic_timestamps(
                    lambda pair: pair[1]))
            .map(pace_pair, name="pace")
            .key_by(lambda pair: pair[0])
            .window(TumblingEventTimeWindows.of(16))
            .aggregate(CountAggregate())
            .map(lambda r: "%s %d %d" % (r.key, r.window.start, r.value),
                 name="format"))
    result = rows.collect()
    rows.add_sink(TransactionalTextFileSink(path), name="file")
    job = env.execute()
    with open(path, "rb") as handle:
        return result.get(), handle.read(), job


@pytest.mark.parametrize("backend, stride", [
    pytest.param(COOPERATIVE, _strides()[0], id="cooperative"),
    pytest.param(TWO_WORKERS, _strides()[1], id="multiprocess",
                 marks=needs_fork)])
def test_every_crash_point_gives_the_clean_outputs(tmp_path, backend, stride):
    clean_rows, clean_bytes, _ = window_job(str(tmp_path / "clean.txt"),
                                            backend)
    assert len(clean_rows) > KEYS
    assert clean_bytes.decode().splitlines() == clean_rows
    for point in range(stride, SWEEP_N, stride):
        faults = FaultInjector([FaultEvent(CRASH, after_records=point,
                                           subtask="pace")])
        rows, data, job = window_job(str(tmp_path / ("at-%d.txt" % point)),
                                     backend, faults)
        assert faults.applied and job.restarts == 1, point
        assert rows == clean_rows, "collect() differs after a crash at %d" % point
        assert data == clean_bytes, "the file differs after a crash at %d" % point
