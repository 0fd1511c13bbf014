"""Checkpoint bookkeeping for asynchronous barrier snapshotting (ABS).

The coordinator side of fault tolerance: a :class:`PendingCheckpoint`
collects per-subtask snapshots as barriers flow through the job; once
every stateful subtask has acknowledged, it becomes a
:class:`CompletedCheckpoint` held by the :class:`CheckpointStore`.
Recovery replays the job from the latest completed checkpoint: operator
state is restored and replayable sources rewind to their recorded
offsets.

The :class:`CheckpointCoordinator` drives that lifecycle -- cadence,
acks, sealing, aborts, the failure tolerance -- for both execution
backends: the cooperative engine ticks it once per scheduler round on
the simulated clock, the multiprocess parent once per supervision loop
on the wall clock.  Workers of the multiprocess backend have none; they
forward acks to the parent's.

The actual barrier injection/alignment lives in the runtime
(:mod:`repro.runtime.task`); this module is pure bookkeeping so it can be
unit-tested without an engine.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

SubtaskId = Tuple[str, int]  # (operator id, subtask index)


def make_subtask_id(vertex_id: int, vertex_name: str,
                    subtask_index: int) -> SubtaskId:
    """The identity a subtask's snapshot is filed under, in memory and
    in durable checkpoints -- the one place its format is written."""
    return ("%d-%s" % (vertex_id, vertex_name), subtask_index)


def subtask_grid(job_graph: Any) -> Tuple[Set[SubtaskId], Set[SubtaskId]]:
    """Every subtask id of the job, and the source ones among them."""
    subtasks: Set[SubtaskId] = set()
    sources: Set[SubtaskId] = set()
    for vertex_id, vertex in job_graph.vertices.items():
        ids = {make_subtask_id(vertex_id, vertex.name, index)
               for index in range(vertex.parallelism)}
        subtasks |= ids
        if vertex.is_source:
            sources |= ids
    return subtasks, sources


#: Completed checkpoints a store keeps for recovery fallback.
MAX_RETAINED_CHECKPOINTS = 3


class TaskSnapshot:
    """Everything one subtask contributes to a checkpoint."""

    __slots__ = ("subtask", "keyed_state", "operator_state", "timers",
                 "partitioners", "dead_letters")

    def __init__(self, subtask: SubtaskId, keyed_state: Dict[str, Dict[Any, Any]],
                 operator_state: Any = None, timers: Optional[dict] = None,
                 partitioners: Optional[Dict[str, Any]] = None,
                 dead_letters: Optional[List[Any]] = None) -> None:
        self.subtask = subtask
        self.keyed_state = keyed_state
        self.operator_state = operator_state
        self.timers = timers or {}
        #: Routing state of stateful output partitioners (rebalance
        #: cursors), keyed by output-edge position -- part of the
        #: consistent cut so post-restore round-robin placement replays
        #: the original run.
        self.partitioners = partitioners or {}
        #: Records this subtask quarantined up to the cut.
        self.dead_letters = dead_letters or []

    def __repr__(self) -> str:
        return "TaskSnapshot(%s#%d)" % self.subtask


class PendingCheckpoint:
    """A checkpoint in flight: barriers injected, acks being collected.
    Aborting one is the coordinator dropping it; acks that arrive later
    no longer match the pending id."""

    def __init__(self, checkpoint_id: int, expected: Set[SubtaskId],
                 trigger_time: int) -> None:
        if not expected:
            raise ValueError("a checkpoint needs at least one participant")
        self.checkpoint_id = checkpoint_id
        self.trigger_time = trigger_time
        self._expected = set(expected)
        self._snapshots: Dict[SubtaskId, TaskSnapshot] = {}

    def acknowledge(self, snapshot: TaskSnapshot) -> None:
        if snapshot.subtask not in self._expected:
            raise ValueError(
                "unexpected ack from %r for checkpoint %d"
                % (snapshot.subtask, self.checkpoint_id))
        self._snapshots[snapshot.subtask] = snapshot

    def is_expired(self, now: int, timeout_ms: Optional[int]) -> bool:
        """Whether this checkpoint has been in flight longer than the
        coordinator tolerates."""
        return timeout_ms is not None and now - self.trigger_time > timeout_ms

    @property
    def is_complete(self) -> bool:
        return set(self._snapshots) == self._expected

    @property
    def pending_subtasks(self) -> Set[SubtaskId]:
        return self._expected - set(self._snapshots)

    def seal(self, completion_time: int) -> "CompletedCheckpoint":
        if not self.is_complete:
            raise RuntimeError(
                "checkpoint %d still waiting on %r"
                % (self.checkpoint_id, sorted(self.pending_subtasks)))
        return CompletedCheckpoint(self.checkpoint_id, dict(self._snapshots),
                                   self.trigger_time, completion_time)


class CompletedCheckpoint:
    """An immutable, fully-acknowledged checkpoint."""

    def __init__(self, checkpoint_id: int,
                 snapshots: Dict[SubtaskId, TaskSnapshot],
                 trigger_time: int, completion_time: int) -> None:
        self.checkpoint_id = checkpoint_id
        self.snapshots = snapshots
        self.trigger_time = trigger_time
        self.completion_time = completion_time

    def snapshot_for(self, subtask: SubtaskId) -> Optional[TaskSnapshot]:
        return self.snapshots.get(subtask)

    @property
    def duration_ms(self) -> int:
        return self.completion_time - self.trigger_time

    def __repr__(self) -> str:
        return "CompletedCheckpoint(id=%d, tasks=%d)" % (
            self.checkpoint_id, len(self.snapshots))


class CheckpointStore:
    """Retains the most recent completed checkpoints (like Flink's
    ``state.checkpoints.num-retained``)."""

    def __init__(self, max_retained: int = MAX_RETAINED_CHECKPOINTS) -> None:
        if max_retained < 1:
            raise ValueError("must retain at least one checkpoint")
        self._max_retained = max_retained
        self._completed: List[CompletedCheckpoint] = []

    def add(self, checkpoint: CompletedCheckpoint) -> None:
        self._completed.append(checkpoint)
        self._completed.sort(key=lambda c: c.checkpoint_id)
        while len(self._completed) > self._max_retained:
            self._completed.pop(0)

    def discard(self, checkpoint_id: int) -> None:
        """Drop one retained checkpoint (it failed durability
        verification and must not be offered for recovery again)."""
        self._completed = [checkpoint for checkpoint in self._completed
                           if checkpoint.checkpoint_id != checkpoint_id]

    @property
    def latest(self) -> Optional[CompletedCheckpoint]:
        return self._completed[-1] if self._completed else None

    @property
    def all_retained(self) -> List[CompletedCheckpoint]:
        return list(self._completed)

    def load_latest_verified(self) -> Optional[CompletedCheckpoint]:
        """The checkpoint a respawned fleet restores from.  Memory is
        all this store has; the durable store re-reads and verifies."""
        return self.latest

    def durability_stats(self) -> Optional[Dict[str, int]]:
        """``None``: nothing is persisted (see the durable store)."""
        return None

    def __len__(self) -> int:
        return len(self._completed)


def _open_store(checkpoint_dir: Optional[str]) -> CheckpointStore:
    if checkpoint_dir is None:
        return CheckpointStore()
    # Imported here: repro.state.durable builds on this module.
    from repro.state.durable import DurableCheckpointStore
    return DurableCheckpointStore(checkpoint_dir)


class CheckpointCoordinator:
    """The checkpoint lifecycle of one job.

    Owns the store, the cadence, id allocation and the single pending
    checkpoint: an ack that completes it seals it into the store and
    owes the tasks a completion notification (the 2PC commit signal),
    delivered by the next :meth:`tick`; a pending checkpoint whose
    participant finished, or that outlived ``checkpoint_timeout_ms``,
    is aborted; more than
    ``tolerable_consecutive_checkpoint_failures`` aborts in a row fail
    the job.

    The coordinator reaches the tasks only through
    ``send(kind, checkpoint_id)`` with ``kind`` one of ``"trigger"``
    (inject barriers at the live sources), ``"abort"`` and
    ``"notify"``, and reads time only through ``clock``, so the
    backends differ in what they pass and not in what happens.
    ``listener`` (optional) receives ``on_checkpoint_triggered`` /
    ``on_checkpoint_completed`` / ``on_checkpoint_aborted``.
    :meth:`tick` and :meth:`abort` *return* the reason the job must
    fail, or ``None``; what a failure means (restart strategy, end of
    the attempt) is the caller's.
    """

    def __init__(self, config: Any, clock: Callable[[], int],
                 send: Callable[[str, int], None],
                 subtasks: Iterable[SubtaskId],
                 sources: Iterable[SubtaskId],
                 listener: Any = None) -> None:
        self.store = _open_store(config.checkpoint_dir)
        self._interval_ms: Optional[int] = config.checkpoint_interval_ms
        self._timeout_ms: Optional[int] = config.checkpoint_timeout_ms
        self._tolerable_failures: Optional[int] = (
            config.tolerable_consecutive_checkpoint_failures)
        self._clock = clock
        self._send = send
        self._listener = listener
        self._subtasks = frozenset(subtasks)
        self._sources = frozenset(sources)
        self.pending: Optional[PendingCheckpoint] = None
        self.completed = 0
        self.aborted = 0
        self.durations_ms: List[int] = []
        self._consecutive_failures = 0
        self._next_id = 1
        #: Sealed checkpoints whose completion notification is owed.
        self._sealed: List[int] = []
        self.next_trigger_time: Optional[int] = None
        self.begin_attempt()

    @property
    def enabled(self) -> bool:
        """Whether there is a cadence to run (``checkpoint_interval_ms``
        set); a disabled coordinator never needs a :meth:`tick`."""
        return self._interval_ms is not None

    def begin_attempt(self) -> None:
        """A freshly deployed job (first start, restart from scratch, a
        respawned fleet): whatever was pending is gone, uncounted, and
        the first trigger is one interval away."""
        self.pending = None
        if self._interval_ms is not None:
            self.next_trigger_time = self._clock() + self._interval_ms

    def drop_pending(self) -> None:
        """Recovery discards in-flight barriers; that is not an abort,
        and the cadence keeps its schedule."""
        self.pending = None

    def acknowledge(self, checkpoint_id: int,
                    snapshot: TaskSnapshot) -> None:
        pending = self.pending
        if pending is None or pending.checkpoint_id != checkpoint_id:
            return  # ack of an aborted checkpoint
        pending.acknowledge(snapshot)
        if not pending.is_complete:
            return
        completed = pending.seal(self._clock())
        self.store.add(completed)
        self.durations_ms.append(completed.duration_ms)
        self.completed += 1
        self._consecutive_failures = 0
        self.pending = None
        # Not sent from here: on the cooperative engine the ack arrives
        # from inside a task step, and notifications must observe the
        # world after the round's steps.
        self._sealed.append(checkpoint_id)
        if self._listener is not None:
            self._listener.on_checkpoint_completed(completed)

    def abort(self, reason: str) -> Optional[str]:
        """Give up on the pending checkpoint instead of wedging the
        trigger loop forever."""
        pending = self.pending
        assert pending is not None
        self.pending = None
        if self._listener is not None:
            self._listener.on_checkpoint_aborted(pending.checkpoint_id,
                                                 reason)
        self._send("abort", pending.checkpoint_id)
        self.aborted += 1
        self._consecutive_failures += 1
        tolerable = self._tolerable_failures
        if tolerable is None or self._consecutive_failures <= tolerable:
            return None
        self._consecutive_failures = 0
        return ("more than %d consecutive checkpoint failures (latest: "
                "checkpoint %d aborted: %s)"
                % (tolerable, pending.checkpoint_id, reason))

    def next_trigger(self, finished: AbstractSet[SubtaskId]
                     ) -> Optional[int]:
        """When :meth:`tick` will trigger the next checkpoint: ``None``
        while one is pending or once a source has finished (a job
        running out cannot complete a barrier cut)."""
        if self.pending is not None or self._sources & finished:
            return None
        return self.next_trigger_time

    def tick(self, finished: AbstractSet[SubtaskId]) -> Optional[str]:
        """One coordination step: deliver owed notifications, abort a
        pending checkpoint that can no longer complete, trigger the
        next one when it is due.  ``finished`` is the subtasks that
        have ended so far."""
        while self._sealed:
            self._send("notify", self._sealed.pop(0))
        now = self._clock()
        pending = self.pending
        if pending is not None:
            stragglers = pending.pending_subtasks & finished
            if stragglers:
                reason = ("participant %s#%d finished before acknowledging"
                          % min(stragglers))
            elif pending.is_expired(now, self._timeout_ms):
                reason = ("timed out after %d ms waiting on %r"
                          % (self._timeout_ms,
                             sorted(pending.pending_subtasks)))
            else:
                return None
            failure = self.abort(reason)
            if failure is not None:
                return failure
        due = self.next_trigger(finished)
        if due is None or now < due:
            return None
        checkpoint_id = self._next_id
        self._next_id += 1
        expected = self._subtasks - finished
        self.pending = PendingCheckpoint(checkpoint_id, expected,
                                         trigger_time=now)
        self.next_trigger_time = now + self._interval_ms
        self._send("trigger", checkpoint_id)
        if self._listener is not None:
            self._listener.on_checkpoint_triggered(checkpoint_id,
                                                   len(expected))
        return None

    def stats(self) -> Dict[str, Any]:
        """The ``checkpoints`` block of ``job_report()``."""
        block: Dict[str, Any] = {"completed": self.completed,
                                 "aborted": self.aborted}
        durations = self.durations_ms
        if durations:
            block["duration_ms_min"] = min(durations)
            block["duration_ms_max"] = max(durations)
            block["duration_ms_mean"] = sum(durations) / len(durations)
        durable = self.store.durability_stats()
        if durable is not None:
            block["durable"] = durable
        return block
