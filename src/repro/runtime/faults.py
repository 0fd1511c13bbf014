"""Fault injection, the same schedule on either backend.

One vocabulary, executed by both backends: ``EngineConfig(faults=...)``
takes a :class:`FaultInjector` over a schedule of :class:`FaultEvent`\\ s
-- generated from a seed or written by hand.  Each event fires once per
job (not once per attempt: a restarted job must be allowed to finish),
as soon as the job has made the progress its trigger names:

* ``after_checkpoints`` -- that many checkpoints of the job are sealed;
* ``after_records`` -- that many records went into the victim subtask
  (out of it, for a source);
* ``when(view)`` -- a predicate over the view (below) holds.

All three must hold; an unset one holds trivially.  The victim is picked
from the job graph, so it is the same subtask on both backends:
``subtask`` narrows the candidates to the subtasks of the operator of
that name and ``target`` picks one of them, modulo their number.

Fault kinds:

* ``crash`` -- the victim crashes: the cooperative engine raises
  :class:`~repro.runtime.engine.InjectedFailure` in place; on the
  multiprocess backend the worker owning the victim SIGKILLs itself.
  The supervisor's restart strategy decides what happens next;
* ``stall`` -- a source subtask emits nothing for ``param`` rounds; the
  worker owning it SIGSTOPs itself, and the supervisor, which sees the
  process stopped in the kernel, fails it as hung;
* ``poison`` -- the next ``param`` records into the victim raise
  :class:`PoisonPill` where an element enters the chain: a raising user
  callback, which fails the task and goes to the restart strategy;
* ``drop`` / ``duplicate`` -- an input channel of the victim loses or
  repeats a buffered record, then the job crashes: the corruption is only
  survivable because recovery discards in-flight data and replays it;
* ``corrupt-checkpoint`` -- one byte of the newest persisted checkpoint
  flips (needs ``checkpoint_dir``), so a later crash shows recovery
  detecting it and falling back.

The injector sees the job through a small view protocol: ``job_graph``;
``tasks``, the subtasks running in this process; ``rounds``, this
scheduler's round; ``sealed_checkpoints``, of the job so far; and
``checkpoint_store``, ``None`` where another process owns it.  The
cooperative engine, every multiprocess worker's shard engine and the
multiprocess parent each implement it, and carry out the backend half of
a fired event in ``view._fault_fired(index, event, victim)``.  A worker
announces what it fired to the parent, whose copy of the injector is the
record of the job; respawned workers inherit it.

Every failure takes one path on both backends: the engine's scheduler
round (``Engine._run_round``) hands whatever it raised to the restart
strategy, and without a strategy the job fails.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.state.checkpoint import SubtaskId, make_subtask_id


class PoisonPill(Exception):
    """Raised while processing a chaos-poisoned record."""


# -- fault schedule ---------------------------------------------------------

CRASH = "crash"
STALL = "stall"
POISON = "poison"
DROP = "drop"
DUPLICATE = "duplicate"
CORRUPT_CHECKPOINT = "corrupt-checkpoint"

FAULT_KINDS = (CRASH, STALL, POISON, DROP, DUPLICATE, CORRUPT_CHECKPOINT)
#: Kinds a randomized chaos schedule draws by default (poison is
#: scheduled by hand).
STATE_PRESERVING_KINDS = (CRASH, STALL, DROP, DUPLICATE)
#: Kinds after which the job restarts, per backend: a stalled worker
#: process is a hung one, a stalled cooperative subtask merely idles.
#: The difference stays on purpose: the cooperative stall's idling is
#: how a checkpoint times out and aborts in a deterministic run.
RESTARTING_KINDS = {"cooperative": (CRASH, DROP, DUPLICATE),
                    "multiprocess": (CRASH, STALL, DROP, DUPLICATE)}


class FaultEvent:
    """One scheduled fault and the progress it waits for (see the module
    docstring).  ``param`` is kind-specific: stall length in rounds,
    poison count."""

    __slots__ = ("kind", "after_checkpoints", "after_records", "subtask",
                 "when", "target", "param")

    def __init__(self, kind: str, *, after_checkpoints: int = 0,
                 after_records: int = 0, subtask: Optional[str] = None,
                 when: Optional[Callable[[Any], bool]] = None,
                 target: int = 0, param: int = 1) -> None:
        if kind not in FAULT_KINDS:
            raise ValueError("unknown fault kind %r (have: %s)"
                             % (kind, ", ".join(FAULT_KINDS)))
        if after_checkpoints < 0 or after_records < 0:
            raise ValueError("fault triggers must be >= 0")
        self.kind = kind
        self.after_checkpoints = after_checkpoints
        self.after_records = after_records
        self.subtask = subtask
        self.when = when
        self.target = target
        self.param = param

    def __repr__(self) -> str:
        trigger = ["%s=%r" % (name, getattr(self, name))
                   for name in ("after_checkpoints", "after_records",
                                "subtask")
                   if getattr(self, name)]
        if self.when is not None:
            trigger.append("when=%s" % getattr(self.when, "__name__", "?"))
        return ("FaultEvent(%s, %s, target=%d, param=%d)"
                % (self.kind, ", ".join(trigger) or "at once", self.target,
                   self.param))


def random_fault_schedule(seed: int, num_faults: int = 4,
                          first_records: int = 20, last_records: int = 600,
                          kinds: Tuple[str, ...] = STATE_PRESERVING_KINDS,
                          max_stall_rounds: int = 200) -> List[FaultEvent]:
    """A deterministic randomized fault schedule for chaos sweeps, each
    event due once its victim took between ``first_records`` and
    ``last_records`` records -- the same schedule on either backend."""
    if num_faults < 1:
        raise ValueError("num_faults must be >= 1")
    if last_records < first_records:
        raise ValueError("last_records must be >= first_records")
    rng = random.Random(seed)
    events = []
    for _ in range(num_faults):
        kind = rng.choice(list(kinds))
        after = rng.randint(first_records, last_records)
        param = (rng.randint(20, max_stall_rounds)
                 if kind == STALL else rng.randint(1, 3))
        events.append(FaultEvent(kind, after_records=after,
                                 target=rng.randrange(1 << 16), param=param))
    events.sort(key=lambda event: event.after_records)
    return events


class FaultInjector:
    """Fires a fault schedule at a running job, each event once.

    Every scheduler round calls :meth:`on_round` with the view; a due
    event whose victim runs in another process, or that finds nothing to
    strike yet (no record in flight, no durable checkpoint), waits for a
    later round.  ``applied`` lists the events that fired, in order.
    """

    def __init__(self, schedule: List[FaultEvent], seed: int = 0) -> None:
        self.schedule = list(schedule)
        self.applied: List[FaultEvent] = []
        self._fired: Set[int] = set()
        self._stalls: Dict[SubtaskId, int] = {}   # subtask -> until round
        self._rng = random.Random(seed ^ 0x5EED)

    @classmethod
    def from_seed(cls, seed: int, **kwargs: Any) -> "FaultInjector":
        return cls(random_fault_schedule(seed, **kwargs), seed=seed)

    def record(self, index: int) -> None:
        """Note that ``schedule[index]`` fired, here or in a worker."""
        self._fired.add(index)
        self.applied.append(self.schedule[index])

    def is_stalled(self, task: Any, rounds: int) -> bool:
        until = self._stalls.get(task.subtask_id)
        return until is not None and rounds < until

    def on_round(self, view: Any) -> None:
        """Fire every due event this process owns; a crash raises (or
        ends the process) from ``view._fault_fired``."""
        for index, event in enumerate(self.schedule):
            if (index in self._fired
                    or view.sealed_checkpoints < event.after_checkpoints):
                continue
            victim = self._strike(view, event)
            if victim is not None:
                self.record(index)
                view._fault_fired(index, event, victim)

    def _strike(self, view: Any, event: FaultEvent) -> Any:
        """Apply ``event`` if it is due here; returns what it struck, or
        ``None`` to retry next round."""
        if event.kind == CORRUPT_CHECKPOINT:
            store = view.checkpoint_store
            if store is None or (event.when is not None
                                 and not event.when(view)):
                return None
            return _corrupt_newest_checkpoint(store, self._rng)
        wanted = _victim_of(view.job_graph, event)
        task = next((task for task in view.tasks
                     if task.subtask_id == wanted), None)
        if task is None or (event.after_records
                            and _records_into(task) < event.after_records):
            return None
        if event.when is not None and not event.when(view):
            return None
        if event.kind == CRASH:
            return task
        if task.finished:
            return None
        if event.kind == STALL:
            self._stalls[wanted] = view.rounds + event.param
            return task
        if event.kind == POISON:
            task.poison_next_records += event.param
            return task
        channels = [channel for channel, _ in task.inputs
                    if channel.has_buffered_record]
        if not channels:
            return None  # no record in flight yet
        channel = channels[event.target % len(channels)]
        if event.kind == DROP:
            channel.drop_one_record()
        else:
            channel.duplicate_one_record()
        return channel

    def __repr__(self) -> str:
        return ("FaultInjector(pending=%d, applied=%d)"
                % (len(self.schedule) - len(self._fired), len(self.applied)))


def _victim_of(job_graph: Any, event: FaultEvent) -> SubtaskId:
    """The subtask ``event`` strikes: ``target`` modulo the candidates
    its kind and ``subtask`` name allow, in job-graph order."""
    sources = event.kind == STALL   # else: processing subtasks, or any
    candidates = []
    for vertex_id, vertex in sorted(job_graph.vertices.items()):
        if event.subtask is not None and event.subtask not in vertex.names:
            continue
        if event.kind != CRASH and vertex.is_source != sources:
            continue
        candidates.extend(make_subtask_id(vertex_id, vertex.name, index)
                          for index in range(vertex.parallelism))
    if not candidates:
        raise ValueError("no subtask%s can take a %s fault"
                         % ("" if event.subtask is None
                            else " of operator %r" % event.subtask,
                            event.kind))
    return candidates[event.target % len(candidates)]


def _records_into(task: Any) -> int:
    counters = task.metrics.counters()
    return counters.get("records_out" if task.is_source else "records_in", 0)


def _corrupt_newest_checkpoint(store: Any, rng: random.Random
                               ) -> Optional[str]:
    """Flip one byte in the newest persisted checkpoint file; returns the
    path, or ``None`` when nothing durable exists yet."""
    path = store.newest_file()
    if path is None:
        return None
    with open(path, "r+b") as handle:
        blob = handle.read()
        if not blob:
            return None
        offset = rng.randrange(len(blob))
        handle.seek(offset)
        handle.write(bytes([blob[offset] ^ 0xFF]))
    return path
