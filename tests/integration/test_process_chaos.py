"""OS-level chaos battery for the multiprocess backend.

The fault vocabulary of ``test_faults.py`` meets the real failure domain
of worker processes here: a crash is a SIGKILL and a stall a SIGSTOP
that a worker delivers to itself, and a corrupted checkpoint is a
flipped bit in a persisted file.  Faults fire on progress -- sealed
checkpoints, records into a subtask -- never on the wall clock, so none
can land before the job has done what the test needs.  The contract under test is the
paper's fault-tolerance claim end to end: every faulted run must
converge to output identical to the unfaulted cooperative run, hung
workers must be *detected* (stopped, as the kernel reports, not by
checkpoint luck), and no attempt may leak zombie processes.
"""

import glob
import multiprocessing
import os
import signal
import time

import pytest

from repro.api.environment import Environment
from repro.connectors.sinks import TransactionalTextFileSink
from repro.runtime import multiprocess
from repro.runtime.engine import EngineConfig
from repro.runtime.faults import (
    CORRUPT_CHECKPOINT,
    CRASH,
    STALL,
    FaultEvent,
    FaultInjector,
    random_fault_schedule,
)
from repro.runtime.restart import FixedDelayRestart
from repro.runtime.watchdog import WorkerWatchdog
from tests.integration.test_transactional_sinks import TornAppendSink

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="multiprocess backend requires the fork start method")

N = 1200
#: Even so each key's records originate from exactly ONE source subtask
#: (from_collection deals element index % parallelism, so v % 14 fixes
#: v % 2): per-key arrival order -- and with it every running fold
#: total -- is then deterministic across backends, attempts and
#: restores, which is what lets the battery demand byte-identical sink
#: output instead of a weaker final-state check.
KEYS = 14


def _throttle(value):
    """Slow the stream enough that mid-run faults land mid-run.

    Sleeps on both value parities so BOTH source subtasks stay live for
    hundreds of ms: the coordinator stops triggering checkpoints once
    any source subtask finishes, so an unthrottled subtask would race
    the first checkpoint trigger and the durable store could stay
    empty."""
    if value % 4 < 2:
        time.sleep(0.002)
    return value


def _format_pair(pair):
    return "%d:%d" % pair


def _build_job(env, target, sink=None):
    (env.from_collection(range(N))
        .map(_throttle, name="throttle")
        .key_by(lambda v: v % KEYS)
        .fold(0, lambda acc, value: acc + value)
        .add_sink(sink or TransactionalTextFileSink(
            target, formatter=_format_pair)))


def _run_job(config, target, sink=None):
    env = Environment(parallelism=2, config=config)
    _build_job(env, target, sink)
    job = env.execute()
    with open(target) as handle:
        lines = sorted(line.rstrip("\n") for line in handle)
    return lines, job, env


def _expected_lines(tmp_path):
    """The unfaulted cooperative run is the correctness oracle."""
    target = str(tmp_path / "oracle.txt")
    lines, _, _ = _run_job(EngineConfig(), target)
    return lines


def _chaos_config(tmp_path, schedule, seed=0, **kwargs):
    kwargs.setdefault("checkpoint_interval_ms", 40)
    kwargs.setdefault("checkpoint_dir", str(tmp_path / "chk"))
    kwargs.setdefault("restart_strategy",
                      FixedDelayRestart(max_restarts=10, delay_ms=0))
    return EngineConfig(
        backend="multiprocess", num_workers=2,
        faults=FaultInjector(schedule, seed=seed), **kwargs)


def _assert_no_zombies():
    # Every worker of every attempt must be reaped: the teardown ladder
    # (join -> terminate -> kill -> blocking join) ends each attempt.
    leaked = [p for p in multiprocessing.active_children() if p.is_alive()]
    assert not leaked, "worker processes leaked: %r" % leaked


# -- SIGKILL parity ----------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_sigkill_parity(tmp_path, seed):
    """A seeded SIGKILL mid-run: the respawned fleet restores from the
    durable checkpoint and the 2PC sink's output is identical to the
    unfaulted cooperative run."""
    expected = _expected_lines(tmp_path)
    schedule = [FaultEvent(CRASH, after_checkpoints=1,
                           after_records=100 + 29 * (seed % 10),
                           subtask="throttle", target=seed)]
    config = _chaos_config(tmp_path, schedule, seed=seed)
    lines, job, env = _run_job(config, str(tmp_path / "out.txt"))

    assert config.faults.applied, "the kill never fired"
    assert job.restarts >= 1
    assert lines == expected
    _assert_no_zombies()
    report = env.job_report()
    assert report["checkpoints"]["durable"]["persisted"] >= 1
    assert report["fleet"]["watchdog"]["failures_declared"] >= 1


def test_double_kill_both_workers(tmp_path):
    """Two kills in quick succession (possibly both workers): the fleet
    respawns as many times as needed and still converges exactly."""
    expected = _expected_lines(tmp_path)
    schedule = [FaultEvent(CRASH, after_records=100, subtask="throttle",
                           target=0),
                FaultEvent(CRASH, after_records=300, subtask="throttle",
                           target=1)]
    config = _chaos_config(tmp_path, schedule)
    lines, job, env = _run_job(config, str(tmp_path / "out.txt"))

    assert len(config.faults.applied) == 2
    assert job.restarts >= 1
    assert lines == expected
    _assert_no_zombies()


# -- SIGSTOP: hung-worker detection -----------------------------------------


def _time_detection(monkeypatch, config):
    """Note, in the parent, when it records the stall announcement and
    when it first declares a worker failed (a forked worker's copies of
    these hooks write to its own copy of the dict)."""
    times = {}
    record = config.faults.record

    def timed_record(index):
        times.setdefault("announced", time.monotonic())
        record(index)

    mark_failed = WorkerWatchdog.mark_failed

    def timed_mark_failed(self, worker_id, reason):
        times.setdefault("declared", time.monotonic())
        mark_failed(self, worker_id, reason)

    monkeypatch.setattr(config.faults, "record", timed_record)
    monkeypatch.setattr(WorkerWatchdog, "mark_failed", timed_mark_failed)
    return times


def _assert_declared_within_400_ms(times):
    assert set(times) == {"announced", "declared"}, times
    latency = times["declared"] - times["announced"]
    assert 0 <= latency < 0.4, (
        "stopped worker declared failed %.0f ms after its stall "
        "announcement" % (latency * 1000))


def test_sigstop_detected_by_watchdog_not_checkpoint_timeout(
        tmp_path, monkeypatch):
    """A SIGSTOP'd worker is not dead -- its pipes stay open, so EOF
    never fires.  The supervisor sees the kernel report it stopped and
    declares it failed on that tick; the checkpoint timeout (set
    absurdly high here) must never be the detector."""
    expected = _expected_lines(tmp_path)
    schedule = [FaultEvent(STALL, after_records=100, subtask="throttle",
                           target=0)]
    config = _chaos_config(
        tmp_path, schedule,
        checkpoint_timeout_ms=120_000)  # would "detect" after 2 minutes
    times = _time_detection(monkeypatch, config)
    lines, job, env = _run_job(config, str(tmp_path / "out.txt"))

    assert config.faults.applied, "the stop never fired"
    assert job.restarts == 1
    assert lines == expected
    _assert_declared_within_400_ms(times)
    report = env.job_report()
    assert report["fleet"]["watchdog"]["failures_declared"] == 1
    # The stopped process ignored SIGTERM; teardown had to SIGKILL it.
    assert report["fleet"]["shutdown"]["killed"] >= 1
    _assert_no_zombies()


def test_sigstop_without_checkpointing_still_detected(tmp_path, monkeypatch):
    """Hang detection must not depend on checkpointing being on."""
    expected = _expected_lines(tmp_path)
    schedule = [FaultEvent(STALL, after_records=100, subtask="throttle",
                           target=1)]
    config = _chaos_config(
        tmp_path, schedule,
        checkpoint_interval_ms=None,
        checkpoint_dir=None)
    times = _time_detection(monkeypatch, config)
    lines, job, env = _run_job(config, str(tmp_path / "out.txt"))

    assert job.restarts == 1  # from-scratch restart
    assert lines == expected
    _assert_declared_within_400_ms(times)
    assert env.job_report()["fleet"]["watchdog"]["failures_declared"] == 1
    _assert_no_zombies()


# -- checkpoint corruption ---------------------------------------------------


def test_corrupted_checkpoint_detected_and_survived(tmp_path):
    """Flip a byte in the first persisted checkpoint, then kill a
    worker -- or, on the cooperative backend, crash a subtask.  Recovery
    must *detect* the corruption (CRC mismatch) and fall back -- to an
    older checkpoint or to a from-scratch restart -- never restore
    garbage state.  Both backends restore through the same verified
    read of the store."""
    expected = _expected_lines(tmp_path)
    # The coordinator corrupts the checkpoint on the tick that seals it,
    # before it tells the tasks it is sealed; the crash waits for that
    # word, so no fresh intact checkpoint can slip in between.
    schedule = [FaultEvent(CORRUPT_CHECKPOINT),
                FaultEvent(CRASH, after_checkpoints=1, subtask="throttle",
                           target=0)]
    cooperative = EngineConfig(
        checkpoint_interval_ms=5, elements_per_step=4,
        checkpoint_dir=str(tmp_path / "cooperative-chk"),
        restart_strategy=FixedDelayRestart(max_restarts=10, delay_ms=0),
        faults=FaultInjector(schedule, seed=5))
    for config in (_chaos_config(tmp_path, schedule, seed=5), cooperative):
        lines, job, env = _run_job(
            config, str(tmp_path / ("out-%s.txt" % config.backend)))

        assert len(config.faults.applied) == 2, config.backend
        assert job.restarts >= 1
        assert lines == expected
        report = env.job_report()
        durable = report["checkpoints"]["durable"]
        assert durable["corruptions_detected"] >= 1, config.backend
        assert job.counters.get("checkpoint_corruptions_detected", 0) >= 1
    _assert_no_zombies()


# -- multi-seed sweep (the battery) ------------------------------------------


def _battery_seeds():
    """Seeds for the local sweep; CI's chaos-smoke job runs the full
    >= 20-seed battery through ``benchmarks/bench_e13_chaos.py``."""
    return [int(s) for s in os.environ.get(
        "REPRO_CHAOS_SEEDS", "3 11").split()]


@pytest.mark.parametrize("seed", _battery_seeds())
def test_seeded_battery(tmp_path, seed):
    """Randomized kill/stop schedule per seed: output parity with the
    unfaulted run, no zombies, every fault accounted for."""
    expected = _expected_lines(tmp_path)
    config = _chaos_config(
        tmp_path,
        random_fault_schedule(seed, num_faults=2, first_records=50,
                              last_records=400, kinds=(CRASH, STALL)),
        seed=seed)
    lines, job, env = _run_job(config, str(tmp_path / "out.txt"))

    assert lines == expected, "seed %d diverged" % seed
    _assert_no_zombies()


def test_sigkill_with_batched_shm_exchange(tmp_path, monkeypatch):
    """A mid-run SIGKILL while columnar frames are in flight on the
    rings: the respawned fleet gets *fresh* rings (nothing of the dead
    attempt's slots survives), restores from the durable checkpoint and
    converges to the exact unfaulted output.  Deliberately tiny rings so
    the run also exercises the ring-full pipe fallback under chaos."""
    # The ring geometry is a module constant; the parent maps the rings
    # before it forks, so patching here reaches the whole fleet.
    monkeypatch.setattr(multiprocess, "EXCHANGE_RING_SLOTS", 2)
    monkeypatch.setattr(multiprocess, "EXCHANGE_SLOT_BYTES", 4096)
    expected = _expected_lines(tmp_path)
    schedule = [FaultEvent(CRASH, after_checkpoints=1, after_records=200,
                           subtask="throttle", target=0)]
    config = _chaos_config(tmp_path, schedule, seed=13,
                           batch_size=16, exchange="shm")
    lines, job, env = _run_job(config, str(tmp_path / "out.txt"))

    assert config.faults.applied, "the kill never fired"
    assert job.restarts >= 1
    assert lines == expected
    _assert_no_zombies()
    exchange = env.job_report()["exchange"]
    assert exchange["transport"] == "shm"
    assert exchange["totals"]["shm_frames"] > 0, (
        "batched shm chaos run never used the rings")


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def test_sigkill_inside_a_commit_leaves_the_unfaulted_bytes(tmp_path):
    """The worker owning the 2PC sink SIGKILLs itself halfway through
    appending a committed transaction.  The respawned fleet truncates
    the torn tail on restore and re-appends the transaction from the
    checkpoint: the file is the unfaulted run's, and the only file in
    its directory."""
    expected = _expected_lines(tmp_path)
    os.makedirs(str(tmp_path / "out"))
    target = str(tmp_path / "out" / "out.txt")
    marker = str(tmp_path / "killed")
    sink = TornAppendSink(target, marker, _kill_self,
                          formatter=_format_pair)
    lines, job, _ = _run_job(_chaos_config(tmp_path, []), target, sink)

    assert os.path.exists(marker), "the kill never fired"
    assert job.restarts >= 1
    assert lines == expected
    assert os.listdir(str(tmp_path / "out")) == ["out.txt"]
    _assert_no_zombies()


# -- workers hold no checkpoint store ----------------------------------------


def _sealed(checkpoint_dir):
    """The committed ``chk-<id>.snap`` checkpoint files."""
    return {name for name in os.listdir(checkpoint_dir)
            if name.endswith(".snap")}


def test_respawned_workers_keep_the_retained_checkpoints(tmp_path):
    """Regression: every worker used to build its own
    ``DurableCheckpointStore(checkpoint_dir)`` -- which wipes the
    directory -- so a respawned fleet deleted the checkpoints it was
    restoring from, and a second failure before the next seal restarted
    the job from scratch.  Workers hold no store now."""
    log = str(tmp_path / "processed.log")
    open(log, "w").close()

    def logged_throttle(value):
        # One O_APPEND write per record: which pid processed which value.
        with open(log, "a") as handle:
            handle.write("%d %d\n" % (os.getpid(), value))
        return _throttle(value)

    checkpoint_dir = str(tmp_path / "chk")
    os.makedirs(checkpoint_dir)

    def noting_the_retained_checkpoints(label, ready=lambda: True):
        """A ``when`` trigger that, once ``ready()``, writes down which
        ``chk-*`` files the kill it fires sees."""
        def when(view):
            if not ready():
                return False
            (tmp_path / label).write_text(" ".join(sorted(
                _sealed(checkpoint_dir))))
            return True
        return when

    def respawned_fleet_processing():
        # Two workers per attempt: a fourth pid in the log means both
        # workers of the respawned fleet have built their engines.
        with open(log) as handle:
            return len({line.split()[0] for line in handle}) >= 4

    # SIGKILL worker 0 once a checkpoint is sealed, then worker 1 as soon
    # as the respawned fleet is processing records -- before it can seal
    # a checkpoint of its own.
    faults = FaultInjector([
        FaultEvent(CRASH, after_checkpoints=1, subtask="throttle", target=0,
                   when=noting_the_retained_checkpoints("before")),
        FaultEvent(CRASH, subtask="throttle", target=1,
                   when=noting_the_retained_checkpoints(
                       "after", respawned_fleet_processing))])
    config = EngineConfig(
        backend="multiprocess", num_workers=2, faults=faults,
        checkpoint_interval_ms=150, checkpoint_dir=checkpoint_dir,
        restart_strategy=FixedDelayRestart(max_restarts=10, delay_ms=0))
    target = str(tmp_path / "out.txt")
    env = Environment(parallelism=2, config=config)
    (env.from_collection(range(N))
        .map(logged_throttle, name="throttle")
        .key_by(lambda v: v % KEYS)
        .fold(0, lambda acc, value: acc + value)
        .add_sink(TransactionalTextFileSink(
            target, formatter=lambda pair: "%d:%d" % pair)))
    job = env.execute()

    assert len(faults.applied) == 2, "the two kills never fired"
    before = (tmp_path / "before").read_text()
    assert before
    assert (tmp_path / "after").read_text() == before, (
        "the respawned fleet changed the retained checkpoints (deleted "
        "them, or sealed a new one before the second kill)")
    assert job.restarts == 2
    with open(log) as handle:
        replays_of_first_record = sum(
            1 for line in handle if line.split()[1] == "0")
    assert replays_of_first_record == 1, (
        "a restart went back to offset zero instead of the checkpoint")
    durable = env.job_report()["checkpoints"]["durable"]
    assert durable["corruptions_detected"] == 0
    assert durable["restore_fallbacks"] == 0
    with open(target) as handle:
        lines = sorted(line.rstrip("\n") for line in handle)
    assert lines == _expected_lines(tmp_path)
    _assert_no_zombies()


# -- what a respawn must not forget, and a fleet wider than the job ---------


def test_resumed_job_stays_exactly_once_across_a_respawn(tmp_path):
    """Stop -> savepoint -> resume on worker processes -> SIGKILL after
    the resumed job sealed checkpoints of its own: the 2PC file is the
    uninterrupted run's, although the resumed job's transaction ids
    started over below what the first job had committed through."""
    def program(env, path, pace):
        def numbers():
            for value in range(3000):
                if pace and value % 10 == 0:
                    time.sleep(0.002)
                yield value
        (env.from_source(numbers, name="numbers")
            .map(lambda v: "%d" % v, name="shape")
            .add_sink(TransactionalTextFileSink(path), name="txn-sink"))

    clean = str(tmp_path / "clean.txt")
    env = Environment(config=EngineConfig(checkpoint_interval_ms=5))
    program(env, clean, pace=False)
    env.execute()

    target = str(tmp_path / "out.txt")
    env = Environment(config=EngineConfig(
        checkpoint_interval_ms=5, elements_per_step=8,
        cancel_hook=lambda engine, rounds: rounds >= 120))
    program(env, target, pace=False)
    assert env.execute().cancelled
    savepoint = env.last_engine.create_savepoint()
    assert savepoint.checkpoint_id > 2

    faults = FaultInjector([FaultEvent(CRASH, after_checkpoints=2)])
    env = Environment(config=EngineConfig(
        backend="multiprocess", num_workers=1, faults=faults,
        checkpoint_interval_ms=30, checkpoint_dir=str(tmp_path / "chk"),
        elements_per_step=8,
        restart_strategy=FixedDelayRestart(max_restarts=5, delay_ms=0)))
    program(env, target, pace=True)
    job = env.execute(from_savepoint=savepoint)

    assert faults.applied and job.restarts >= 1
    with open(clean) as expected, open(target) as got:
        assert got.read() == expected.read()
    assert glob.glob(glob.escape(target) + ".*") == []
    _assert_no_zombies()


def test_an_event_fires_once_per_job_across_a_respawn(tmp_path):
    """The respawned fleet starts past the sealed checkpoint the crash
    waited for; it must not crash again, because the parent recorded the
    event when the worker announced it."""
    config = _chaos_config(tmp_path, [FaultEvent(
        CRASH, after_checkpoints=1, subtask="throttle", target=1)])
    lines, job, _ = _run_job(config, str(tmp_path / "out.txt"))

    assert job.restarts == 1
    assert len(config.faults.applied) == 1
    assert lines == _expected_lines(tmp_path)
    _assert_no_zombies()


def test_idle_worker_does_not_switch_checkpointing_off():
    """More workers than the widest vertex: the spare worker owns no
    subtask and reports done at once.  That must not veto the barrier
    cuts of the subtasks that do exist."""
    def slow_source():
        for value in range(300):
            time.sleep(0.001)
            yield value

    env = Environment(parallelism=1, config=EngineConfig(
        backend="multiprocess", num_workers=2, checkpoint_interval_ms=20))
    collected = env.from_source(slow_source).map(lambda v: v + 1).collect()
    job = env.execute()

    assert collected.get() == list(range(1, 301))
    assert job.checkpoints_completed >= 3
    # At most the cut that raced the end of input (a trigger sent while
    # the source was reading its last element) -- not one per trigger.
    assert job.checkpoints_aborted <= 1
    _assert_no_zombies()


# -- shutdown hygiene --------------------------------------------------------


def test_clean_run_leaves_no_zombies(tmp_path):
    config = EngineConfig(backend="multiprocess", num_workers=2)
    env = Environment(parallelism=2, config=config)
    collected = (env.from_collection(range(100))
                 .key_by(lambda v: v % 3).sum().collect())
    env.execute()
    env.job_report()
    assert collected.get()
    _assert_no_zombies()
    report = env.job_report()
    assert report["fleet"]["shutdown"] == {"terminated": 0, "killed": 0}
