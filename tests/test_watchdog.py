"""Unit tests for worker liveness.

The watchdog is pure bookkeeping over caller-supplied observations --
pipe deaths, done payloads, stopped processes -- so its transitions are
driven here without processes.  The one kernel query behind "hung",
``multiprocess._is_stopped``, is asked about a real forked child.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.runtime.multiprocess import _is_stopped
from repro.runtime.watchdog import DONE, FAILED, RUNNING, WorkerWatchdog


def make(workers=2):
    return WorkerWatchdog(range(workers))


def states(dog):
    return dog.snapshot()["workers"]


@pytest.fixture
def child():
    """A forked child blocked inside a call (a 30 s sleep)."""
    process = multiprocessing.get_context("fork").Process(
        target=time.sleep, args=(30,), daemon=True)
    process.start()
    yield process
    process.kill()
    process.join()


def wait_until(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.001)


class TestDeadlines:
    """There is no deadline: what the kernel reports is the signal."""

    def test_starts_running(self):
        assert states(make()) == {0: RUNNING, 1: RUNNING}

    def test_stopped_worker_fails_on_the_first_observation(self, child):
        """Once SIGSTOP lands, every poll reports the child stopped, so
        the first supervision tick after it declares the worker hung;
        continued, it is running again; reaped, it is not stopped (its
        death is the control pipe's to report)."""
        os.kill(child.pid, signal.SIGSTOP)
        wait_until(lambda: _is_stopped(child.pid))
        assert all(_is_stopped(child.pid) for _ in range(100))
        os.kill(child.pid, signal.SIGCONT)
        wait_until(lambda: not _is_stopped(child.pid))
        child.kill()
        child.join()
        assert child.exitcode == -signal.SIGKILL  # the status was left
        assert not _is_stopped(child.pid)

    def test_busy_worker_is_never_failed(self, child):
        """A worker blocked inside a call is busy: however often the
        supervisor asks, the kernel does not report it stopped."""
        for _ in range(200):
            assert not _is_stopped(child.pid)
            time.sleep(0.001)
        assert child.is_alive()


class TestDeclarations:
    def test_done_worker_is_deadline_exempt(self):
        dog = make()
        dog.mark_done(0)
        dog.mark_failed(0, "process stopped")  # exiting after its payload
        dog.mark_failed(1, "process stopped")
        assert states(dog) == {0: DONE, 1: FAILED}
        assert dog.failures_declared == 1

    def test_mark_failed_skips_the_ladder(self):
        """A worker fails on its first declaration, whatever its age."""
        dog = make()
        dog.mark_failed(1, "control pipe EOF")
        assert states(dog) == {0: RUNNING, 1: FAILED}
        assert dog.failure_reason(1) == "control pipe EOF"
        assert dog.failures_declared == 1

    def test_mark_failed_is_idempotent_and_keeps_first_reason(self):
        dog = make()
        dog.mark_failed(0, "first")
        dog.mark_failed(0, "second")
        assert dog.failures_declared == 1
        assert dog.failure_reason(0) == "first"

    def test_failed_worker_stays_failed(self):
        dog = make()
        dog.mark_failed(0, "process stopped")
        dog.mark_failed(1, "control pipe EOF")
        dog.mark_failed(1, "process stopped")
        assert states(dog) == {0: FAILED, 1: FAILED}
        assert dog.failure_reason(1) == "control pipe EOF"


class TestFleetLifecycle:
    def test_restart_resets_states_and_counts_fleets(self):
        dog = make()
        dog.mark_failed(0, "process stopped")
        dog.mark_done(1)
        dog.begin_attempt(range(2))
        assert dog.fleet_restarts == 1
        assert states(dog) == {0: RUNNING, 1: RUNNING}
        assert dog.failure_reason(0) is None
        # The new fleet's workers fail on their own declarations.
        dog.mark_failed(1, "process stopped")
        assert states(dog) == {0: RUNNING, 1: FAILED}

    def test_lifetime_counters_survive_restarts(self):
        dog = make()
        dog.mark_failed(0, "process stopped")
        dog.mark_failed(1, "process stopped")
        dog.begin_attempt(range(2))
        snap = dog.snapshot()
        assert snap["failures_declared"] == 2
        assert snap["fleet_restarts"] == 1

    def test_snapshot_shape(self):
        dog = make()
        dog.mark_done(1)
        assert dog.snapshot() == {"workers": {0: RUNNING, 1: DONE},
                                  "failures_declared": 0,
                                  "fleet_restarts": 0}
