"""Per-worker health record of the multiprocess backend.

Liveness is a fact the coordinator reads from the kernel, never one it
infers from a worker's silence:

* **dead** -- the worker's control pipe hits EOF, or it reports
  ``failed``.  The coordinator learns this from its pipes at once.
* **hung** -- the kernel reports the process *stopped* (SIGSTOP'd: it
  will not run again until someone continues it).  The coordinator
  polls for that state on its supervision ticks and fails a stopped
  worker on the spot.
* **busy** -- anything else: a worker deep in a long UDF call or a long
  scheduler round, or blocked inside a call, is running as far as the
  kernel is concerned, and the supervisor never fails it.  A worker
  spinning forever is a job that never finishes, exactly as on the
  cooperative backend and in Flink; the worker's own no-progress rule
  covers one that loops between rounds without doing anything.

One :class:`WorkerWatchdog` walks each worker through::

    RUNNING --(dead or hung)-------------> FAILED
    RUNNING --(done payload delivered)---> DONE
    any     --(fleet respawn)------------> RUNNING

``FAILED`` is a *declaration*: the coordinator treats it exactly like a
worker crash and hands the job to the restart strategy.

Like :mod:`repro.runtime.restart`, this module is pure bookkeeping over
caller-supplied observations, so every transition is unit-testable
without processes; the kernel query lives in
:mod:`repro.runtime.multiprocess`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

RUNNING = "running"
FAILED = "failed"
#: Orderly exit (the worker delivered its done payload).
DONE = "done"


class WorkerWatchdog:
    """Health record of a worker fleet: per-worker state, the first
    failure reason of each worker, and lifetime counters."""

    def __init__(self, worker_ids: Iterable[int]) -> None:
        self._states: Dict[int, str] = {}
        self._reasons: Dict[int, str] = {}
        self.failures_declared = 0
        self.fleet_restarts = 0
        self.begin_attempt(worker_ids)

    def begin_attempt(self, worker_ids: Iterable[int]) -> None:
        """A (re)spawned fleet: every worker starts RUNNING."""
        if self._states:
            self.fleet_restarts += 1
        self._states = {wid: RUNNING for wid in worker_ids}
        self._reasons = {}

    def mark_done(self, worker_id: int) -> None:
        """The worker delivered its done payload; it may now exit."""
        self._states[worker_id] = DONE

    def mark_failed(self, worker_id: int, reason: str) -> None:
        """Declare a worker failed (pipe EOF, a ``failed`` message, a
        stopped process); a worker already failed or done keeps its
        state and first reason."""
        if self._states[worker_id] != RUNNING:
            return
        self._states[worker_id] = FAILED
        self._reasons[worker_id] = reason
        self.failures_declared += 1

    def failure_reason(self, worker_id: int) -> Optional[str]:
        return self._reasons.get(worker_id)

    def snapshot(self) -> Dict[str, Any]:
        """Report-ready summary (``job_report()["fleet"]["watchdog"]``)."""
        return {"workers": dict(sorted(self._states.items())),
                "failures_declared": self.failures_declared,
                "fleet_restarts": self.fleet_restarts}

    def __repr__(self) -> str:
        by_state: Dict[str, int] = {}
        for state in self._states.values():
            by_state[state] = by_state.get(state, 0) + 1
        return ("WorkerWatchdog(%s, failures=%d)"
                % (", ".join("%s=%d" % item for item in sorted(
                    by_state.items())), self.failures_declared))
