"""Crash-replay across the history->stream seam.

The exactly-once claim of ISSUE 7's tentpole: a hybrid job killed
*during the history phase*, *at the cutover barrier*, or *after the
cutover* must restore the correct side of the seam and produce 2PC sink
output byte-identical to the unfaulted run -- on the cooperative backend
(in-process crashes) and on the multiprocess backend (a worker's real
SIGKILL), each fired by the same fault event watching the hybrid
source's phase.

Determinism note (same trick as ``test_process_chaos.py``): ``KEYS`` is
even and ``N`` is even, so with parallelism 2 every key's records come
from exactly one source subtask on *both* sides of the seam (slice
ownership is ``index % parallelism``, and value parity == index parity
on each side).  Per-key arrival order -- and with it every running fold
total -- is then deterministic across attempts and restores, which is
what lets these tests demand byte-identical output instead of a weaker
final-state check.
"""

import multiprocessing
import time

import pytest

from repro.api.environment import Environment
from repro.connectors.sinks import TransactionalTextFileSink
from repro.runtime.engine import EngineConfig
from repro.runtime.faults import CRASH, FaultEvent, FaultInjector
from repro.runtime.restart import FixedDelayRestart

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

N = 600          # records per side; even (see determinism note)
KEYS = 14


def _hybrid_ops(view):
    """The hybrid source operators running in this process."""
    return [task.chain[0].operator for task in view.tasks
            if callable(getattr(task.chain[0].operator,
                                "cutover_report", None))]


def _phase_crash(phase_predicate, min_checkpoints=1):
    """Crash once, on the first round where the hybrid source satisfies
    ``phase_predicate`` and at least ``min_checkpoints`` checkpoints
    are sealed (so recovery restores rather than restarts)."""
    def in_phase(view):
        ops = _hybrid_ops(view)
        return bool(ops) and phase_predicate(ops)
    return FaultEvent(CRASH, after_checkpoints=min_checkpoints,
                      subtask="hybrid", when=in_phase)


def _in_history(ops):
    """Mid-history: every subtask still draining, some records emitted."""
    return (all(op._phase == "history" for op in ops)
            and sum(op._history_emitted for op in ops) >= N // 4)


def _at_barrier(ops):
    """At the cutover: some subtask crossed the seam (its watermark and
    first stream records are in flight, not yet checkpointed)."""
    return any(op._phase == "stream" for op in ops)


def _after_cutover(ops):
    """Well past the seam: every subtask streaming, a quarter of the live
    side already emitted."""
    return (all(op._phase == "stream" for op in ops)
            and sum(op._stream_emitted for op in ops) >= N // 4)


def _build_job(env, target, history_burst=1, suffix=False):
    stream = env.read(range(N)).then_stream(
        lambda: range(N, 2 * N), history_burst=history_burst, name="hybrid")
    if suffix:
        # Stateless operators chained behind the hybrid source: in
        # batched execution they run fused over each run of records as
        # it leaves the source task.
        stream = (stream.map(lambda v: v * 3)
                  .filter(lambda v: v % 5 != 0)
                  .map(lambda v: v // 3))
    (stream
        .key_by(lambda v: v % KEYS)
        .fold(0, lambda acc, value: acc + value)
        .add_sink(TransactionalTextFileSink(
            target, formatter=lambda pair: "%d:%d" % pair)))


def _run_cooperative(tmp_path, label, faults=None, batch_size=1,
                     suffix=False):
    target = str(tmp_path / ("%s.txt" % label))
    config = EngineConfig(checkpoint_interval_ms=5, elements_per_step=4,
                          faults=faults, batch_size=batch_size,
                          restart_strategy=FixedDelayRestart(
                              max_restarts=3, delay_ms=0))
    env = Environment(parallelism=2, config=config)
    _build_job(env, target, suffix=suffix)
    job = env.execute()
    with open(target) as handle:
        lines = sorted(line.rstrip("\n") for line in handle)
    return lines, job, env


@pytest.mark.parametrize("label, predicate", [
    ("history", _in_history),
    ("barrier", _at_barrier),
    ("after", _after_cutover),
])
def test_cooperative_crash_at_seam_phase(tmp_path, label, predicate):
    expected, _, _ = _run_cooperative(tmp_path, "oracle")
    faults = FaultInjector([_phase_crash(predicate)])
    lines, job, env = _run_cooperative(tmp_path, label, faults=faults)

    assert faults.applied, "the %s-phase crash never fired" % label
    assert job.restarts >= 1
    assert lines == expected, "2PC output diverged after %s crash" % label
    rows = env.job_report()["cutover"]
    assert sum(r["history_emitted"] + r["stream_emitted"]
               for r in rows) == 2 * N
    if label == "history":
        # the crash predated the seam; the restore rewound the history
        # side and the job still crossed exactly once
        assert all(r["phase"] == "stream" for r in rows)


@pytest.mark.parametrize("label, predicate", [
    ("history", _in_history),
    ("barrier", _at_barrier),
    ("after", _after_cutover),
])
def test_batched_crash_at_seam_phase_with_a_fused_source_suffix(
        tmp_path, label, predicate):
    """The same three crashes on the batched config, with a stateless
    suffix fused into the source task: the output must be the scalar,
    unfaulted run's, byte for byte."""
    expected, _, _ = _run_cooperative(tmp_path, "oracle", suffix=True)
    assert len(expected) == 2 * N - 2 * N // 5
    faults = FaultInjector([_phase_crash(predicate)])
    lines, job, env = _run_cooperative(tmp_path, label, faults=faults,
                                       batch_size=16, suffix=True)
    assert faults.applied, "the %s-phase crash never fired" % label
    assert job.restarts >= 1
    assert lines == expected, "2PC output diverged after %s crash" % label
    source_tasks = [task for task in env.last_engine.tasks if task.is_source]
    assert source_tasks and all(task._suffix_fn is not None
                                for task in source_tasks)


def test_cooperative_double_crash_both_sides_of_seam(tmp_path):
    """One crash during history AND one after the cutover, in the same
    run: each restore must replay the correct side."""
    expected, _, _ = _run_cooperative(tmp_path, "oracle")
    faults = FaultInjector([_phase_crash(_in_history),
                            _phase_crash(_after_cutover, min_checkpoints=2)])
    lines, job, _ = _run_cooperative(tmp_path, "double", faults=faults)
    assert len(faults.applied) == 2
    assert job.restarts >= 2
    assert lines == expected


# -- multiprocess: real SIGKILL ----------------------------------------------

def _throttle_history(value):
    """Slow the history side so checkpoints seal mid-history; both
    parities sleep so both source subtasks stay live."""
    if value < N:
        time.sleep(0.002)
    return value


def _throttle_live(value):
    """Slow the live side so checkpoints seal after the cutover."""
    if value >= N:
        time.sleep(0.002)
    return value


def _throttle_seam(value):
    """Slow the records around the seam most (80 records x 5 ms per
    worker), so checkpoints seal while the cutover is in flight.  The
    rest of the history side is slowed as in ``_throttle_history``: an
    unthrottled history floods the sink, the first barrier then queues
    behind that backlog until the job's last records, and the kill
    would race the workers' exit instead of striking at the seam."""
    if N - 80 <= value < N + 80:
        time.sleep(0.005)
    elif value < N:
        time.sleep(0.002)
    return value


def _run_multiprocess(tmp_path, label, throttle, schedule=None,
                      history_burst=1):
    target = str(tmp_path / ("%s.txt" % label))
    # Small steps: a throttled step is short, so barriers align (and
    # checkpoints seal) while the phase the fault waits for still lasts.
    kwargs = dict(checkpoint_interval_ms=40, elements_per_step=4,
                  checkpoint_dir=str(tmp_path / ("chk-%s" % label)),
                  restart_strategy=FixedDelayRestart(max_restarts=10,
                                                     delay_ms=0))
    if schedule is not None:
        kwargs.update(backend="multiprocess", num_workers=2,
                      faults=FaultInjector(schedule))
    config = EngineConfig(**kwargs)
    env = Environment(parallelism=2, config=config)
    (env.read(range(N))
        .then_stream(lambda: range(N, 2 * N), history_burst=history_burst,
                     name="hybrid")
        .map(throttle, name="throttle")
        .key_by(lambda v: v % KEYS)
        .fold(0, lambda acc, value: acc + value)
        .add_sink(TransactionalTextFileSink(
            target, formatter=lambda pair: "%d:%d" % pair)))
    job = env.execute()
    with open(target) as handle:
        lines = sorted(line.rstrip("\n") for line in handle)
    return lines, job, env, config


@pytest.mark.skipif(not HAS_FORK,
                    reason="multiprocess backend requires fork")
@pytest.mark.parametrize("label, throttle", [
    ("history", _throttle_history),
    ("barrier", _throttle_seam),
    ("after", _throttle_live),
])
def test_multiprocess_sigkill_at_seam_phase(tmp_path, label, throttle):
    """The worker owning hybrid subtask 0 judges the phase by its own
    subtask, and kills itself there."""
    predicate = {"history": _in_history, "barrier": _at_barrier,
                 "after": _after_cutover}[label]
    expected, _, _, _ = _run_multiprocess(tmp_path, "oracle-%s" % label,
                                          throttle)
    lines, job, env, config = _run_multiprocess(
        tmp_path, label, throttle, schedule=[_phase_crash(predicate)])

    _assert_one_kill_converged(config, job, env, lines, expected, label)


@pytest.mark.skipif(not HAS_FORK,
                    reason="multiprocess backend requires fork")
def test_multiprocess_sigkill_in_history_at_the_default_burst(tmp_path):
    """The throttle sleeps inside the fused source step, so the default
    burst (8) makes each history step eight times longer on the wall
    clock.  A long step is a busy worker, not a dead one: the kill is
    the only restart."""
    expected, _, _, _ = _run_multiprocess(
        tmp_path, "oracle-burst", _throttle_history, history_burst=8)
    lines, job, env, config = _run_multiprocess(
        tmp_path, "burst", _throttle_history,
        schedule=[_phase_crash(_in_history)], history_burst=8)

    _assert_one_kill_converged(config, job, env, lines, expected, "burst")


def _assert_one_kill_converged(config, job, env, lines, expected, label):
    assert config.faults.applied, "the kill never fired"
    assert job.restarts == 1
    assert lines == expected, "2PC output diverged (%s kill)" % label
    report = env.job_report()
    assert report["fleet"]["watchdog"]["failures_declared"] == 1
    assert sum(r["history_emitted"] + r["stream_emitted"]
               for r in report["cutover"]) == 2 * N
    leaked = [p for p in multiprocessing.active_children() if p.is_alive()]
    assert not leaked, "worker processes leaked: %r" % leaked
