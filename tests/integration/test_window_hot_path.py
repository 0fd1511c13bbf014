"""The keyed-window record path: what a ``(key, window)`` pair costs and
what it leaves behind.

A record joining a live pair is one state lookup and no timer traffic;
everything else happens once per pair.  These tests pin the parts of
that which no output comparison can see -- state and timers left over,
calls made per record -- and that a pair restored from a checkpoint
taken mid-life behaves like one that never went away.
"""

import multiprocessing
import pickle
import pickletools
import time

import pytest

from repro.api.environment import Environment
from repro.connectors.sinks import TransactionalTextFileSink
from repro.observability import MetricGroup
from repro.runtime.channels import Channel
from repro.runtime.elements import CheckpointBarrier, Record, Watermark
from repro.runtime.engine import EngineConfig
from repro.runtime.faults import CRASH, FaultEvent, FaultInjector
from repro.runtime.operators import ForEachSink
from repro.runtime.restart import FixedDelayRestart
from repro.runtime.task import Task
from repro.state.descriptors import MapState
from repro.time import WatermarkStrategy
from repro.time.clock import ManualClock
from repro.time.timers import TimerQueue
from repro.windowing import SumAggregate, TumblingEventTimeWindows
from repro.windowing.operator import WindowOperator

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="multiprocess backend requires the fork start method")


class ValueSum(SumAggregate):
    """Sums field 1 of ``(key, value, ts)`` elements."""

    def add(self, value, accumulator):
        return accumulator + value[1]


def window_chains(env):
    return [chained for task in env.last_engine.tasks
            for chained in task.chain
            if isinstance(chained.operator, WindowOperator)]


def keyed_tumbling_job(elements, size, config=None, parallelism=2):
    """``(key, value, ts)`` elements -> watermarks trailing by 5 ->
    tumbling sums; returns ``(env, sorted result rows)``."""
    env = Environment(parallelism=parallelism, config=config)
    strategy = WatermarkStrategy.for_bounded_out_of_orderness(
        lambda element: element[2], 5)
    results = []
    (env.from_source(lambda: elements, parallelism=1)
        .assign_timestamps_and_watermarks(strategy)
        .key_by(lambda element: element[0])
        .window(TumblingEventTimeWindows.of(size))
        .aggregate(ValueSum())
        .add_sink(results.append))
    env.execute()
    return env, sorted((row.key, row.window.start, row.value)
                       for row in results)


# -- nothing is left behind ----------------------------------------------------


def test_churning_keys_leave_no_state_or_timers_behind():
    # Key i // 40 is live for 40 records, a few out of order, then never
    # seen again: 125 keys come and go over ~100 windows.
    elements = [("k%d" % (i // 40), 1, i - (3 if i % 7 == 0 else 0))
                for i in range(5000)]
    env, rows = keyed_tumbling_job(elements, 50)
    assert sum(value for _, _, value in rows) == 5000
    chains = window_chains(env)
    assert len(chains) == 2
    for chained in chains:
        assert chained.backend.num_entries() == 0
        assert len(chained.timers.event_time) == 0


# -- dense checkpoints ---------------------------------------------------------


def test_source_is_not_starved_by_a_checkpoint_every_round():
    """``checkpoint_interval_ms`` of one round: each checkpoint completes
    in the round its barrier is sent, so the next one is triggered at
    once and the source starts every step with a barrier."""
    elements = [("k%d" % (i % 5), i, i) for i in range(600)]
    _, expected = keyed_tumbling_job(elements, 100)
    env, rows = keyed_tumbling_job(
        elements, 100,
        config=EngineConfig(checkpoint_interval_ms=1,
                            cancel_hook=lambda _engine, rounds:
                            rounds >= 2000))
    report = env.last_engine.job_report()
    assert not report["job"]["cancelled"], "still running at round 2000"
    assert rows == expected
    assert report["checkpoints"]["completed"] >= 5


# -- what a record costs -------------------------------------------------------


def test_per_record_state_and_timer_traffic_is_bounded(monkeypatch):
    """Counts, not wall clock: timers are registered per pair, the key's
    map is resolved once per record and once per timer that goes off."""
    calls = {"register": 0, "popped": 0, "mapping": 0}
    register, pop_due = TimerQueue.register, TimerQueue.pop_due
    mapping = MapState.mapping

    def counting_register(self, timestamp, key, namespace):
        calls["register"] += 1
        return register(self, timestamp, key, namespace)

    def counting_pop_due(self, up_to_inclusive):
        due = pop_due(self, up_to_inclusive)
        calls["popped"] += len(due)
        return due

    def counting_mapping(self, create=False):
        calls["mapping"] += 1
        return mapping(self, create)

    monkeypatch.setattr(TimerQueue, "register", counting_register)
    monkeypatch.setattr(TimerQueue, "pop_due", counting_pop_due)
    monkeypatch.setattr(MapState, "mapping", counting_mapping)

    # In order but for every ninth record, which arrives 4 behind:
    # inside the watermark bound, so nothing is late and no window is
    # re-armed.
    elements = [("k%d" % (i % 13), 1, i - (4 if i % 9 == 0 else 0))
                for i in range(5000)]
    env, rows = keyed_tumbling_job(elements, 100)
    pairs = len(rows)
    assert pairs > 500 and sum(value for _, _, value in rows) == 5000
    late = sum(chained.ctx.metrics.counter("late_records_dropped").value
               for chained in window_chains(env))
    assert late == 0
    # A fire timer and a clean-up timer per pair, each registered once.
    assert calls["register"] <= 2 * pairs
    assert calls["popped"] == 2 * pairs
    assert calls["mapping"] <= len(elements) + calls["popped"]


# -- a pair restored mid-life --------------------------------------------------


def build_window_task(emitted, assigner=None):
    """An opened window task over ``assigner`` (default: a new one)."""
    task = Task("window", 0, 0, 1,
                [WindowOperator(assigner or TumblingEventTimeWindows.of(100),
                                aggregate=SumAggregate()),
                 ForEachSink(emitted.append)],
                ManualClock(), MetricGroup("test"))
    channel = Channel("in", capacity=64)
    task.add_input(channel, 0)
    task.open()
    return task, channel


def test_record_joining_a_restored_pair_registers_nothing_and_fires_once():
    snapshots, emitted = [], []
    task, channel = build_window_task(emitted)
    task.checkpoint_ack = lambda checkpoint_id, snapshot: snapshots.append(
        snapshot)
    channel.push(Record(1, 10, "k"))
    channel.push(Watermark(20))
    channel.push(Record(2, 30, "k"))
    channel.push(CheckpointBarrier(1))      # the pair is live, unfired
    channel.push(Record(4, 40, "k"))
    task.step()
    assert len(snapshots) == 1 and emitted == []

    emitted = []
    task, channel = build_window_task(emitted)
    task.restore(snapshots[0])
    event_timers = task.chain[0].timers.event_time
    assert len(event_timers) == 2           # fire + clean-up, restored
    channel.push(Record(8, 50, "k"))
    task.step()
    assert len(event_timers) == 2
    assert list(task.chain[0].backend.table(
        "window-contents")["k"].values()) == [1 + 2 + 8]
    channel.push(Watermark(150))
    task.step()
    assert [(row.key, row.window.start, row.value) for row in emitted] == [
        ("k", 0, 11)]
    assert len(event_timers) == 0
    assert task.chain[0].backend.num_entries() == 0


def test_crash_restore_folds_into_equal_but_not_identical_windows(
        monkeypatch):
    """The assigner hands out one interned window per start; state and
    timers put back by a restore hold their own copies of it.  Later
    records must find those by equality: same pair, no second pane, no
    timer registered again, and the rows of the uninterrupted run."""
    registered = []
    register = TimerQueue.register
    monkeypatch.setattr(
        TimerQueue, "register",
        lambda self, timestamp, key, namespace: (
            registered.append((timestamp, key)),
            register(self, timestamp, key, namespace))[1])

    def drive(crash):
        snapshots, emitted = [], []
        task, channel = build_window_task(emitted)
        task.checkpoint_ack = lambda checkpoint_id, snapshot: (
            snapshots.append(snapshot))
        for key in ("a", "b", "c"):
            channel.push(Record(1, 10, key))
        channel.push(CheckpointBarrier(1))      # three live pairs
        channel.push(Record(2, 20, "a"))
        task.step()
        if crash:
            # What a restart deploys: a fresh task whose operator shares
            # the factory's assigner and its interned windows, opened,
            # then restored.
            task, channel = build_window_task(
                emitted, task.chain[0].operator.assigner)
            task.restore(snapshots[0])
            del registered[:]
            channel.push(Record(2, 20, "a"))    # replayed
        panes = task.chain[0].backend.table("window-contents")
        interned, = task.chain[0].operator.assigner.assign(None, 30)
        assert all(list(windows) == [interned] for windows in panes.values())
        assert all((window is interned) != crash
                   for windows in panes.values() for window in windows)
        for key in ("a", "b", "c", "d"):
            channel.push(Record(4, 30, key))
        task.step()
        assert {key: list(windows.values())
                for key, windows in panes.items()} == {
            "a": [7], "b": [5], "c": [5], "d": [4]}
        channel.push(Watermark(150))
        task.step()
        assert task.chain[0].backend.num_entries() == 0
        return sorted((row.key, row.window.start, row.value)
                      for row in emitted)

    uninterrupted = drive(crash=False)
    assert len(registered) == 2 * 4             # fire + clean-up per pair
    assert drive(crash=True) == uninterrupted
    assert registered == [(99, "d"), (99, "d")]  # after the restore


def _window_pickles(payload):
    """``(windows built, memo references to them)`` in a pickle whose
    only reduced objects are ``TimeWindow``\\ s."""
    built, references, memo_index, previous = [], 0, 0, None
    for opcode, argument, _ in pickletools.genops(payload):
        if opcode.name == "MEMOIZE":
            if previous == "REDUCE":
                built.append(memo_index)
            memo_index += 1
        elif opcode.name in ("BINGET", "LONG_BINGET"):
            references += argument in built
        previous = opcode.name
    return len(built), references


def test_a_checkpoint_pickles_a_shared_window_once():
    """N pairs living in one window: the snapshot's keyed state holds
    one window object (pickle memoises the interned one), so the
    durable payload builds it once and refers to it N - 1 times."""
    snapshots = []
    task, channel = build_window_task([])
    task.checkpoint_ack = lambda checkpoint_id, snapshot: (
        snapshots.append(snapshot))
    pairs = 40
    for index in range(pairs):
        channel.push(Record(1, 10 + index, "k%d" % index))
    channel.push(CheckpointBarrier(1))
    while channel.size:
        task.step()
    keyed_state = snapshots[0].keyed_state["0"]
    assert len(keyed_state["window-contents"]) == pairs
    payload = pickle.dumps(keyed_state, pickle.HIGHEST_PROTOCOL)
    assert _window_pickles(payload) == (1, pairs - 1)
    restored = pickle.loads(payload)["window-contents"]
    assert len({id(window) for windows in restored.values()
                for window in windows}) == 1
    # The timers refer to the operator's own window: one more object,
    # not one per timer.
    whole = pickle.dumps(snapshots[0], pickle.HIGHEST_PROTOCOL)
    assert whole.count(b"TimeWindow") == 1
    assert len(whole) < 60 * pairs


N = 1200
KEYS = 14       # even: every key's records come from one source subtask


def _throttle(value):
    # Keeps both source subtasks alive long enough for checkpoints (and
    # the kill) to land mid-run.
    if value % 4 < 2:
        time.sleep(0.002)
    return value


def _format(row):
    return "%d:%d:%d" % (row.key, row.window.start, row.value)


def _run_sink_job(config, target):
    """Windows of 300 timestamps ~ 150 records per source subtask: every
    checkpoint of a 4 ms (cooperative) or 40 ms (multiprocess) cadence
    falls between some pair's creation and its firing."""
    env = Environment(parallelism=2, config=config)
    (env.from_collection([(v, v) for v in range(N)], timestamped=True)
        .map(_throttle, name="throttle")
        .key_by(lambda v: v % KEYS)
        .window(TumblingEventTimeWindows.of(300))
        .aggregate(SumAggregate())
        .add_sink(TransactionalTextFileSink(target, formatter=_format)))
    job = env.execute()
    with open(target) as handle:
        return sorted(handle.read().splitlines()), job, env


def _live_pairs(checkpoint):
    return sum(len(windows)
               for snapshot in checkpoint.snapshots.values()
               for tables in snapshot.keyed_state.values()
               for windows in tables.get("window-contents", {}).values())


def test_crash_after_a_checkpoint_across_live_pairs_cooperative(tmp_path):
    expected, _, _ = _run_sink_job(EngineConfig(), str(tmp_path / "ok.txt"))
    assert len(expected) == KEYS * (N // 300)
    seen = {}

    def third_checkpoint_sealed(view):
        latest = view.checkpoint_store.latest
        if latest is None or latest.checkpoint_id < 3:
            return False
        seen["live_pairs"] = _live_pairs(latest)
        return True

    config = EngineConfig(checkpoint_interval_ms=4, elements_per_step=4,
                          restart_strategy=FixedDelayRestart(
                              max_restarts=3, delay_ms=0),
                          faults=FaultInjector([FaultEvent(
                              CRASH, when=third_checkpoint_sealed)]))
    lines, job, _ = _run_sink_job(config, str(tmp_path / "out.txt"))
    assert seen["live_pairs"] > 0, "the checkpoint held no live pair"
    assert job.restarts == 1
    assert lines == expected


@needs_fork
def test_crash_after_a_checkpoint_across_live_pairs_multiprocess(tmp_path):
    expected, _, _ = _run_sink_job(EngineConfig(), str(tmp_path / "ok.txt"))
    faults = FaultInjector([FaultEvent(CRASH, after_checkpoints=2,
                                       subtask="throttle", target=1)])
    config = EngineConfig(
        backend="multiprocess", num_workers=2, faults=faults,
        checkpoint_interval_ms=40, checkpoint_dir=str(tmp_path / "chk"),
        restart_strategy=FixedDelayRestart(max_restarts=10, delay_ms=0))
    lines, job, env = _run_sink_job(config, str(tmp_path / "out.txt"))
    assert faults.applied, "the kill never fired"
    assert job.restarts >= 1
    assert env.job_report()["checkpoints"]["durable"]["persisted"] >= 1
    assert lines == expected
    leaked = [p for p in multiprocessing.active_children() if p.is_alive()]
    assert not leaked, "worker processes leaked: %r" % leaked
