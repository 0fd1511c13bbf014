"""The engine: expands a JobGraph into parallel subtasks and runs them.

Execution is a deterministic cooperative loop:

1. every runnable task gets one bounded ``step()`` per round (a task is
   runnable when it has input and its output channels are below
   capacity -- that inequality *is* the backpressure model);
2. the simulated processing-time clock advances per round and due
   processing-time timers fire;
3. if checkpointing is enabled, the coordinator periodically injects
   barriers at the sources, collects per-task snapshots as barriers
   align across the graph, and seals completed checkpoints;
4. anything a round runs that raises -- a user callback or an injected
   fault (:mod:`repro.runtime.faults`) -- goes to the restart strategy,
   which either fails the job or has the engine build fresh subtasks
   that the next round opens and restores from the latest completed
   checkpoint, rewinding the replayable sources -- the exactly-once
   recovery path of asynchronous barrier snapshotting.  The first
   start is the same deployment, from the map the job was deployed
   with.

The loop is single-threaded on purpose: reproducibility of every
experiment in ``benchmarks/`` depends on it, and the logical costs the
papers compare (records, aggregate calls, tuples transferred) are
unaffected by physical parallelism.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.observability import MetricGroup, merge_gauge_maps, sum_nested
from repro.observability.runtime import (
    OBSERVABILITY_ENV_VAR,
    RuntimeObservability,
    checkpoint_state_entries,
)
from repro.runtime.channels import Channel
from repro.runtime.elements import MAX_TIMESTAMP, MIN_TIMESTAMP
from repro.runtime.faults import RESTARTING_KINDS
from repro.runtime.partition import ForwardPartitioner, owner_of_key
from repro.runtime.restart import grant_restart
from repro.runtime.task import OutputEdge, Task
from repro.state.checkpoint import (
    CheckpointCoordinator,
    SubtaskId,
    TaskSnapshot,
    make_subtask_id,
    restore_point,
    subtask_grid,
)
from repro.time.clock import ManualClock

if TYPE_CHECKING:  # imported lazily to avoid a plan <-> runtime cycle
    from repro.observability.reporter import JobReport
    from repro.plan.graph import JobGraph
    from repro.runtime.faults import FaultEvent, FaultInjector
    from repro.runtime.restart import RestartStrategy

#: Runaway guard of both run loops: a job still unfinished after this
#: many scheduler rounds raises :class:`JobStalledError`.
MAX_ROUNDS = 50_000_000


class EngineConfig:
    """Tunables of the execution loop.

    ``elements_per_step`` is denominated in *records* regardless of
    execution mode: a :class:`~repro.runtime.elements.RecordBatch` of
    *n* records spends *n* of the step budget, exactly like *n* scalar
    records, so tuning it means the same amount of per-round work
    whether ``batch_size`` is 1 or 1024.  A batch larger than a task's
    remaining budget is split at the budget boundary (the tail returns
    to the channel head), so the throttle -- and the backpressure
    dynamics it drives -- is record-exact in both modes.

    ``batch_size`` switches between scalar execution (1, the default:
    every record travels as its own channel element) and batched
    execution (>1: chain tails coalesce up to that many records, and
    the watermarks among them, into one ``RecordBatch`` per channel
    push).  ``None`` reads the
    ``REPRO_BATCH_SIZE`` environment variable (default 1), which is how
    the differential test harness runs unmodified pipelines in both
    modes.  Results are element-for-element identical either way --
    batching is purely a mechanical-sympathy knob.

    ``backend`` selects the execution backend.  ``"cooperative"`` (the
    default) is the deterministic single-interpreter scheduler below;
    ``"multiprocess"`` shards the subtask grid across ``num_workers``
    OS processes, each driving this same cooperative engine over its
    shard, with hash-partitioned exchanges over pipes -- results are
    element-equal as multisets, throughput scales with cores, and
    per-round scheduling interleavings are no longer globally
    deterministic (see :mod:`repro.runtime.multiprocess`).

    ``observability`` turns the runtime observability layer on: ``True``
    gives the engine a metrics registry, span tracing and
    lag/backpressure gauges, read back through :meth:`Engine.job_report`.
    The default ``None`` defers to the ``REPRO_OBSERVABILITY`` environment
    variable; ``False`` forces it off.  Every option is keyword-only.
    """

    def __init__(self, *,
                 backend: str = "cooperative",
                 num_workers: Optional[int] = None,
                 exchange: str = "shm",
                 channel_capacity: int = 128,
                 elements_per_step: int = 32,
                 batch_size: Optional[int] = None,
                 checkpoint_interval_ms: Optional[int] = None,
                 checkpoint_dir: Optional[str] = None,
                 cancel_hook: Optional[Callable[["Engine", int], bool]] = None,
                 restart_strategy: Optional["RestartStrategy"] = None,
                 checkpoint_timeout_ms: Optional[int] = None,
                 tolerable_consecutive_checkpoint_failures: Optional[int] = None,
                 faults: Optional["FaultInjector"] = None,
                 observability: Optional[bool] = None,
                 share_arrangements: bool = True,
                 arrangement_compaction_interval: int = 8,
                 **unknown: Any) -> None:
        if unknown:
            raise TypeError(_unknown_options_message(unknown))
        if backend not in ("cooperative", "multiprocess"):
            raise ValueError(
                "backend must be 'cooperative' or 'multiprocess'; got %r"
                % (backend,))
        if backend == "multiprocess" and cancel_hook is not None:
            raise ValueError("cancel_hook requires the cooperative backend "
                             "(it is called between scheduler rounds)")
        if exchange not in ("shm", "pipe"):
            raise ValueError(
                "exchange must be 'shm' (columnar shared-memory rings) or "
                "'pipe' (pickle frames over pipes); got %r" % (exchange,))
        if batch_size is None:
            batch_size = int(os.environ.get("REPRO_BATCH_SIZE", "1"))
        if observability is None:
            observability = os.environ.get(OBSERVABILITY_ENV_VAR, "0") not in (
                "", "0", "false", "False")
        elif not isinstance(observability, bool):
            raise TypeError("observability must be None or a bool; got %r"
                            % (observability,))
        # (option, value, smallest legal value); ``None`` always passes.
        for name, value, floor in (
                ("num_workers", num_workers, 1),
                ("channel_capacity", channel_capacity, 1),
                ("elements_per_step", elements_per_step, 1),
                ("batch_size", batch_size, 1),
                ("checkpoint_interval_ms", checkpoint_interval_ms, 1),
                ("checkpoint_timeout_ms", checkpoint_timeout_ms, 1),
                ("tolerable_consecutive_checkpoint_failures",
                 tolerable_consecutive_checkpoint_failures, 0),
                ("arrangement_compaction_interval",
                 arrangement_compaction_interval, 1)):
            if value is not None and value < floor:
                raise ValueError("%s must be >= %d" % (name, floor))
        #: Which execution backend runs the job: ``"cooperative"`` (the
        #: deterministic single-process reference scheduler) or
        #: ``"multiprocess"`` (shared-nothing OS-process workers with
        #: hash-partitioned pipe exchanges; see
        #: :mod:`repro.runtime.multiprocess`).
        self.backend = backend
        #: Worker-process count for the multiprocess backend; ``None``
        #: resolves to ``os.cpu_count()`` (capped at 8) at launch.
        self.num_workers = num_workers
        #: Cross-worker data transport of the multiprocess backend:
        #: ``"shm"`` (the default) ships record batches as columnar
        #: frames through shared-memory ring buffers, with the pipe kept
        #: for control elements and pickle fallbacks; ``"pipe"`` ships
        #: everything as pickle frames.  Ignored by the cooperative
        #: backend (no process boundary to cross).  When ring
        #: provisioning fails at launch (e.g. no memory for the
        #: mappings), the attempt degrades to ``"pipe"`` silently.
        self.exchange = exchange
        self.channel_capacity = channel_capacity
        self.elements_per_step = elements_per_step
        self.batch_size = batch_size
        self.checkpoint_interval_ms = checkpoint_interval_ms
        #: When set, the checkpoint coordinator of either backend
        #: persists every sealed checkpoint under this directory as one
        #: CRC-checksummed file, ``chk-<id>.snap`` (see
        #: :mod:`repro.state.durable`).  A restart on either backend
        #: restores from *disk* with verification -- a corrupted or torn
        #: checkpoint falls back to the next-oldest retained one -- and
        #: the files serve savepoints (:mod:`repro.state.timetravel`).
        #: ``None`` keeps checkpoints in coordinator memory only.
        self.checkpoint_dir = checkpoint_dir
        #: ``cancel_hook(engine, rounds)`` returning true stops the job
        #: between two rounds (cooperative backend only).
        self.cancel_hook = cancel_hook
        #: Supervisor policy for task failures, the same on both
        #: backends: every exception a user callback or an injected crash
        #: raises goes to it.  ``None`` means no restart: the failure
        #: (an ``InjectedFailure`` included) propagates out of
        #: ``execute()``.
        self.restart_strategy = restart_strategy
        #: Abort a pending checkpoint still unacknowledged after this
        #: much simulated time (``None`` = wait forever).
        self.checkpoint_timeout_ms = checkpoint_timeout_ms
        #: Fail the job after more than this many checkpoint aborts in a
        #: row (``None`` = tolerate any number).
        self.tolerable_consecutive_checkpoint_failures = (
            tolerable_consecutive_checkpoint_failures)
        #: Fault injection, the same schedule on either backend (see
        #: :mod:`repro.runtime.faults`).
        self.faults = faults
        #: Let the Table optimizer rewire group-by/join plans onto shared
        #: arrangements: queries whose keyed input matches an existing
        #: arrangement's (source, plan-prefix fingerprint, key) attach a
        #: read handle to the one maintained index instead of building
        #: their own (see :mod:`repro.state.arrangement` and
        #: ``docs/arrangements.md``).  Results are identical either way;
        #: disable to force independent per-query state.
        self.share_arrangements = share_arrangements
        #: Compact an arrangement every this-many sealed versions:
        #: deltas below every attached reader's low watermark fold into
        #: the base, keeping version count and index memory flat under a
        #: steady watermark.  Lower = flatter memory, more fold work.
        self.arrangement_compaction_interval = arrangement_compaction_interval
        #: Whether the observability layer is on (``None`` resolved
        #: against the environment).
        self.observability = observability


def _unknown_options_message(unknown: Dict[str, Any]) -> str:
    """A helpful error for a mistyped EngineConfig keyword."""
    import difflib
    import inspect
    known = [name for name in
             inspect.signature(EngineConfig.__init__).parameters
             if name not in ("self", "unknown")]
    parts = []
    for name in sorted(unknown):
        close = difflib.get_close_matches(name, known, n=1)
        hint = " (did you mean %r?)" % close[0] if close else ""
        parts.append("%r%s" % (name, hint))
    return ("EngineConfig got unknown option(s): %s; known options: %s"
            % (", ".join(parts), ", ".join(known)))


class JobFailedError(Exception):
    """Raised during execution when no recovery is possible."""


class JobStalledError(Exception):
    """The scheduler made no progress but tasks remain unfinished -- a
    wiring bug or a backpressure deadlock."""


class InjectedFailure(Exception):
    """A scheduled fault crashed the job (see :mod:`repro.runtime.faults`)."""


def channel_name(up: Task, down: Task) -> str:
    """The name of the channel from subtask ``up`` to subtask ``down``:
    unique per pair of subtasks, vertices that share a name included."""
    return "%s#%d->%s#%d" % (up.subtask_id + down.subtask_id)


def records_emitted(counters: Dict[str, int]) -> int:
    """Records out of every task, from merged job (or worker) counters."""
    return sum(value for name, value in counters.items()
               if name.endswith("records_out"))


class JobResult:
    """Post-execution statistics."""

    def __init__(self, rounds: int, simulated_time_ms: int,
                 counters: Dict[str, int],
                 checkpoints_completed: int,
                 checkpoint_durations_ms: List[int],
                 cancelled: bool = False,
                 restarts: int = 0,
                 checkpoints_aborted: int = 0,
                 gauges: Optional[Dict[str, int]] = None) -> None:
        self.rounds = rounds
        self.simulated_time_ms = simulated_time_ms
        self.counters = counters
        self.checkpoints_completed = checkpoints_completed
        self.checkpoint_durations_ms = checkpoint_durations_ms
        self.cancelled = cancelled
        #: Restarts granted by the restart strategy, each a redeploy.
        self.restarts = restarts
        self.checkpoints_aborted = checkpoints_aborted
        self.gauges = gauges if gauges is not None else {}

    @property
    def records_emitted(self) -> int:
        return records_emitted(self.counters)

    def __repr__(self) -> str:
        return ("JobResult(rounds=%d, sim_ms=%d, checkpoints=%d, "
                "restarts=%d)"
                % (self.rounds, self.simulated_time_ms,
                   self.checkpoints_completed, self.restarts))


def job_outcome(engine: Any, payloads: List[Dict[str, Any]],
                supervisor_counters: Dict[str, int],
                supervisor_sections: Optional[Dict[str, Any]] = None,
                cancelled: bool = False) -> JobResult:
    """The end of a run, the same on both backends: fold the done
    payloads (:meth:`Engine._done_payload` -- the cooperative engine's
    one, or one per multiprocess worker), ``engine``'s checkpoint
    coordinator and the supervisor's own counters and report sections
    into the :class:`JobResult`, and keep the ``job_report()`` sections
    on ``engine``."""
    coordinator = engine.coordinator
    checkpoint_counters = {"checkpoints_aborted": coordinator.aborted}
    durable = coordinator.store.durability_stats()
    if durable is not None:
        checkpoint_counters.update(
            checkpoints_persisted=durable["persisted"],
            checkpoint_corruptions_detected=durable["corruptions_detected"],
            checkpoint_restore_fallbacks=durable["restore_fallbacks"])
    result = JobResult(
        rounds=max(payload["rounds"] for payload in payloads),
        simulated_time_ms=max(payload["simulated_time_ms"]
                              for payload in payloads),
        counters=sum_nested(
            [payload["counters"] for payload in payloads]
            + [supervisor_counters, checkpoint_counters]),
        checkpoints_completed=coordinator.completed,
        checkpoint_durations_ms=list(coordinator.durations_ms),
        cancelled=cancelled,
        restarts=engine.restarts,
        checkpoints_aborted=coordinator.aborted,
        gauges=merge_gauge_maps(payload["gauges"] for payload in payloads))
    parts = [payload["report_sections"] for payload in payloads]
    if supervisor_sections:
        parts.append(supervisor_sections)
    if len(parts) == 1:
        merged = parts[0]  # whole: merging would re-sort its rows
    else:
        from repro.observability.reporter import merge_report_sections
        merged = merge_report_sections(parts)
    observability = "metrics" in merged
    checkpoints = coordinator.stats()
    if observability:
        latest = coordinator.store.latest
        checkpoints["last_state_entries"] = (
            checkpoint_state_entries(latest) if latest is not None else 0)
    engine._report = {
        "job": {
            "backend": engine.config.backend,
            "workers": len(payloads),
            "rounds": result.rounds,
            "simulated_time_ms": result.simulated_time_ms,
            "records_emitted": result.records_emitted,
            "restarts": result.restarts,
            "cancelled": cancelled,
            "observability": observability,
        },
        "checkpoints": checkpoints,
        **merged,
    }
    return result


class Engine:
    """Executes one JobGraph to completion, from the state in ``restore``
    (e.g. a savepoint's ``task_snapshots(job_graph)``; default: none)."""

    def __init__(self, job_graph: "JobGraph",
                 config: Optional[EngineConfig] = None,
                 restore: Optional[Dict[SubtaskId, TaskSnapshot]] = None
                 ) -> None:
        self.job_graph = job_graph
        self.config = config or EngineConfig()
        #: What a deployment restores from while no checkpoint verifies.
        self._restore = restore or {}
        self.clock = ManualClock()
        self.restarts = 0
        #: The fault view (:mod:`repro.runtime.faults`): the current
        #: scheduler round and the job's sealed checkpoints so far.
        self.rounds = 0
        self.sealed_checkpoints = 0
        # Note: counter maps merge by *unqualified* name, so coordinator
        # counters must not reuse task-level counter names.
        self.metrics = MetricGroup("coordinator")
        self.metrics.counter("restarts")  # counted by grant_restart
        self._failures_metric = self.metrics.counter("failures")
        #: The live observability layer, or ``None``; the scheduler pays
        #: one ``is not None`` test per round when disabled, and the
        #: per-record path is untouched either way.
        self.observability: Optional[RuntimeObservability] = (
            RuntimeObservability(self) if self.config.observability
            else None)
        #: The ``job_report()`` sections, once :func:`job_outcome` ran.
        self._report: Optional[Dict[str, Any]] = None
        #: Each subtask's metrics, by subtask id (vertex id included, so
        #: vertices that share a name count apart): every deployment's
        #: task of that subtask counts into the same group.
        self._task_metrics: Dict[SubtaskId, MetricGroup] = {}
        self._build()
        #: Set here and by every restart: the next round opens the built
        #: tasks and restores them (:meth:`_deploy`), inside the failure
        #: boundary.
        self._deploy_due = True
        self._attach_coordinator()

    # -- construction -----------------------------------------------------

    def _build(self) -> None:
        """Fresh tasks and channels from the job graph; nothing is
        opened until :meth:`_deploy`."""
        cfg = self.config
        tracer = (self.observability.tracer
                  if self.observability is not None else None)
        self.tasks: List[Task] = []
        by_vertex: Dict[int, List[Task]] = {}
        for vertex_id, vertex in sorted(self.job_graph.vertices.items()):
            subtasks = []
            for index in range(vertex.parallelism):
                operators = [factory() for factory in vertex.operator_factories]
                subtask = make_subtask_id(vertex_id, vertex.name, index)
                metrics = self._task_metrics.get(subtask)
                if metrics is None:
                    metrics = self._task_metrics[subtask] = MetricGroup(
                        "%s.%d" % subtask)
                task = Task(vertex.name, vertex_id, index, vertex.parallelism,
                            operators, self.clock, metrics,
                            elements_per_step=cfg.elements_per_step,
                            batch_size=cfg.batch_size,
                            tracer=tracer)
                task.checkpoint_ack = self._acknowledge_checkpoint
                subtasks.append(task)
            by_vertex[vertex_id] = subtasks
            self.tasks.extend(subtasks)

        for edge in self.job_graph.edges:
            upstream = by_vertex[edge.source_vertex]
            downstream = by_vertex[edge.target_vertex]
            if (isinstance(edge.partitioner, ForwardPartitioner)
                    and len(upstream) != len(downstream)):
                raise ValueError(
                    "forward edge %r requires equal parallelism (%d vs %d)"
                    % (edge, len(upstream), len(downstream)))
            for up in upstream:
                channels = [self._create_channel(edge, up, down)
                            for down in downstream]
                # Stateful partitioners (rebalance) are cloned per
                # upstream subtask: each subtask owns its own cursor, so
                # the cursor belongs to exactly one task's checkpoint
                # snapshot and restores consistently.
                up.add_output_edge(OutputEdge(edge.partitioner.clone(),
                                              channels, up.subtask_index))

    def _create_channel(self, edge: Any, up: Task, down: Task) -> Channel:
        """Create and wire the physical channel between two subtasks.
        Overridden by the multiprocess backend's shard engine, which
        substitutes cross-worker channels with pipe-backed exchanges."""
        channel = Channel(channel_name(up, down),
                          capacity=self.config.channel_capacity)
        down.add_input(channel, edge.target_input)
        return channel

    def _deploy(self) -> None:
        """Open every built task and restore it from what
        :func:`restore_point` picks: the newest checkpoint that
        verifies, else the map the job was deployed with.  The one
        deployment of both backends, first start and restart alike."""
        checkpoint_id, restore = restore_point(self.checkpoint_store,
                                               self._restore)
        if restore:
            # Exactly-once sinks reattach to, not wipe, their targets.
            from repro.connectors.sinks import TransactionalSinkOperator
            for task in self.tasks:
                for chained in task.chain:
                    if isinstance(chained.operator,
                                  TransactionalSinkOperator):
                        chained.operator.resume_on_open = True
        for task in self.tasks:
            task.open()
            snapshot = restore.get(task.subtask_id)
            if snapshot is not None:
                task.restore(snapshot)
        if self.coordinator is not None:
            self.coordinator.begin_attempt()
        if checkpoint_id is not None and self.observability is not None:
            self.observability.on_recovery(checkpoint_id)

    # -- checkpoint coordination -------------------------------------------

    def _attach_coordinator(self) -> None:
        """Give the engine its checkpoint coordinator and, through it,
        the checkpoint store.  The multiprocess backend's shard engine
        overrides this: there the parent process coordinates."""
        self.coordinator: Optional[CheckpointCoordinator] = (
            CheckpointCoordinator(
                self.config, self.clock.now, self._dispatch_checkpoint,
                *subtask_grid(self.job_graph), listener=self.observability))
        self.checkpoint_store = self.coordinator.store

    def _dispatch_checkpoint(self, kind: str, checkpoint_id: int) -> None:
        """Carry out one coordinator message on the local tasks."""
        if kind == "trigger":
            for task in self.tasks:
                if task.is_source and not task.finished:
                    task.pending_checkpoint = checkpoint_id
        elif kind == "notify":
            # The commit signal of the two-phase-commit sink protocol.
            self.sealed_checkpoints += 1
            for task in self.tasks:
                if not task.finished:
                    task.notify_checkpoint_complete(checkpoint_id)
        elif kind == "abort":
            for task in self.tasks:
                task.abort_checkpoint(checkpoint_id)

    def _acknowledge_checkpoint(self, checkpoint_id: int,
                                snapshot: TaskSnapshot) -> None:
        self.coordinator.acknowledge(checkpoint_id, snapshot)

    # -- supervision --------------------------------------------------------

    def _handle_failure(self, exc: BaseException) -> None:
        """The supervisor: consult the restart strategy and either let
        the failure escape or restart the job as a respawned fleet
        restarts: fresh tasks and empty channels now, deployed by the
        next round."""
        self._failures_metric.inc()
        delay_ms = grant_restart(self, exc, self.clock.now())
        self.clock.advance(delay_ms)  # restart delay burns simulated time
        if self.observability is not None:
            self.observability.on_restart(self.restarts, delay_ms, exc)
        self._build()
        self._deploy_due = True

    def _fault_fired(self, index: int, event: "FaultEvent",
                     victim: Any) -> None:
        """The backend half of a fired fault (the injector already
        mutated the task or channel): the crashing kinds raise, for
        :meth:`_run_round` to hand to the supervisor."""
        if event.kind in RESTARTING_KINDS["cooperative"]:
            raise InjectedFailure("injected %s at %r" % (event.kind, victim))

    # -- queryable state -----------------------------------------------------

    def query_state(self, operator_name: str, state_name: str,
                    key: Any, default: Any = None) -> Any:
        """Read one key's value from an operator's keyed state -- the
        queryable-state facility that lets a serving layer probe the live
        view instead of waiting for sink output (the freshness story of
        experiment E9)."""
        for vertex_id, vertex in self.job_graph.vertices.items():
            if operator_name not in vertex.names:
                continue
            position = vertex.names.index(operator_name)
            subtasks = [task for task in self.tasks
                        if task.vertex_id == vertex_id]
            subtask = subtasks[owner_of_key(key, len(subtasks))]
            table = subtask.chain[position].backend.table(state_name)
            return table.get(key, default)
        raise KeyError("no operator named %r (available: %r)"
                       % (operator_name,
                          sorted(name for vertex in
                                 self.job_graph.vertices.values()
                                 for name in vertex.names)))

    # -- savepoints --------------------------------------------------------

    def create_savepoint(self) -> "Savepoint":
        """Package the latest completed checkpoint as a savepoint that a
        new execution of the same program (possibly at different
        parallelism or on the other backend) can restore.  State is keyed
        by operator *name*, so the program must use unique operator names."""
        from repro.state.savepoint import savepoint_from_completed
        latest = self.checkpoint_store.latest
        if latest is None:
            raise JobFailedError(
                "no completed checkpoint to derive a savepoint from")
        return savepoint_from_completed(latest, self.job_graph,
                                        JobFailedError)

    # -- the loop -----------------------------------------------------------

    def _next_processing_timer(self) -> int:
        """The earliest pending processing-time timer across live tasks,
        or ``MAX_TIMESTAMP`` when none exists (used to jump the clock
        over idle stretches)."""
        return min(
            (chained.timers.processing_time.peek_timestamp()
             for task in self.tasks if not task.finished
             for chained in task.chain),
            default=MAX_TIMESTAMP)

    #: Simulated milliseconds per scheduler round -- the clock every
    #: timer, timeout and observability duration runs on.
    _TICK_MS = 1

    def _run_round(self, rounds: int,
                   coordinator: Optional[CheckpointCoordinator] = None,
                   moved: bool = False) -> bool:
        """Scheduler round number ``rounds``: deploy the job if one is
        due (:meth:`_deploy`), fire due faults, give every
        runnable task one bounded ``step()``, advance the clock, fire due
        processing-time timers, let ``coordinator`` (``None``:
        checkpoints off, or a worker whose parent coordinates) take its
        turn; a round without record progress (``moved``: the caller
        already brought input in) jumps the clock to the next
        processing-time timer.  Returns whether the round got anywhere.

        This is the one failure boundary of both backends: whatever the
        round runs -- a deployment's ``open``, an element, a timer, a
        snapshot, a commit, an injected crash -- that raises ends the
        round in the supervisor.
        """
        self.rounds = rounds
        faults = self.config.faults
        progressed = moved
        ticked = False
        try:
            if self._deploy_due:
                self._deploy_due = False
                self._deploy()
            if faults is not None:
                faults.on_round(self)
            for task in self.tasks:
                if (task.is_runnable
                        and (faults is None
                             or not faults.is_stalled(task, rounds))
                        and task.step()):
                    progressed = True
            self.clock.advance(self._TICK_MS)
            ticked = True
            now = self.clock.now()
            for task in self.tasks:
                task.on_processing_time(now)
            if coordinator is not None:
                failure = coordinator.tick(
                    {task.subtask_id for task in self.tasks if task.finished})
                if failure is not None:
                    raise JobFailedError(failure)
            if not progressed:
                next_timer = self._next_processing_timer()
                if now < next_timer < MAX_TIMESTAMP:
                    self.clock.set(next_timer)
                    for task in self.tasks:
                        task.on_processing_time(next_timer)
                    progressed = True
        except Exception as exc:
            self._handle_failure(exc)
            progressed = True
            if not ticked:
                # Simulated time does not depend on where a failure struck.
                self.clock.advance(self._TICK_MS)
        if self.observability is not None:
            self.observability.on_round(rounds + 1, self._TICK_MS)
        return progressed

    def execute(self) -> JobResult:
        cfg = self.config
        coordinator = self.coordinator if self.coordinator.enabled else None
        rounds = 0
        stall_rounds = 0
        cancelled = False
        while not all(task.finished for task in self.tasks):
            if rounds >= MAX_ROUNDS:
                raise JobStalledError(
                    "exceeded %d rounds; unfinished: %r"
                    % (MAX_ROUNDS,
                       [t for t in self.tasks if not t.finished]))
            if cfg.cancel_hook is not None and cfg.cancel_hook(self, rounds):
                cancelled = True
                break
            if self._run_round(rounds, coordinator):
                stall_rounds = 0
            else:
                stall_rounds += 1
            rounds += 1
            if stall_rounds > 1000:
                raise JobStalledError(
                    "no progress for %d rounds; unfinished: %r"
                    % (stall_rounds,
                       [t for t in self.tasks if not t.finished]))

        return job_outcome(self, [self._done_payload(rounds)],
                           self.metrics.counters(), cancelled=cancelled)

    def _done_payload(self, rounds: int) -> Dict[str, Any]:
        """What this engine reports once its run is over after ``rounds``
        rounds, for :func:`job_outcome`: the cooperative engine hands over
        one, every multiprocess worker one over its control pipe.  The
        report sections are read off the live tasks and the
        observability layer."""
        from repro.observability import collect_cutty_stats
        obs = self.observability
        if obs is not None:
            obs.sample()  # final frontier/occupancy snapshot
        now = self.clock.now()
        sim_seconds = now / 1000.0

        task_counters = [task.metrics.counters() for task in self.tasks]
        operators = []
        for task, counters in zip(self.tasks, task_counters):
            records_out = counters.get("records_out", 0)
            row: Dict[str, Any] = {
                "operator": task.vertex_name,
                "subtask": task.subtask_index,
                "records_in": counters.get("records_in", 0),
                "records_out": records_out,
            }
            if sim_seconds > 0:
                row["throughput_rps"] = records_out / sim_seconds
            watermark = task.current_watermark
            if MIN_TIMESTAMP < watermark < MAX_TIMESTAMP:
                row["watermark_lag_ms"] = max(0, now - watermark)
            if obs is not None:
                row["backpressure_stall_ms"] = obs.stall_ms.get(
                    task.subtask_id, 0)
            operators.append(row)

        sections: Dict[str, Any] = {
            "operators": operators,
            "cutty": collect_cutty_stats(self),
        }
        for name, hook in (("cutover", "cutover_report"),
                           ("arrangements", "arrangement_report")):
            rows = [row for task in self.tasks
                    for row in task.operator_reports(hook)]
            if rows:
                sections[name] = rows

        if obs is not None:
            skew = obs.registry.gauge("watermark_skew_ms")
            lag = obs.registry.gauge("watermark_lag_ms")
            sections["watermarks"] = {
                "skew_ms": skew.value,
                "skew_ms_max": skew.max_value,
                "lag_ms": lag.value,
                "lag_ms_max": lag.max_value,
            }
            sections["channels"] = [
                {"channel": channel.name,
                 "pushed": channel.pushed,
                 "polled": channel.polled,
                 "cleared": channel.cleared,
                 "occupancy_hwm": obs.registry.gauge(
                     "channel_occupancy.%s" % channel.name).max_value}
                for task in self.tasks for channel, _ in task.inputs]
            sections["spans"] = obs.tracer.digest()
            sections["metrics"] = obs.registry.snapshot()
        return {
            "rounds": rounds,
            "simulated_time_ms": now,
            "counters": sum_nested(task_counters),
            "gauges": merge_gauge_maps(
                task.metrics.gauges() for task in self.tasks),
            "report_sections": sections,
        }

    # -- reporting -----------------------------------------------------------

    def job_report(self) -> "JobReport":
        """Structured post-run summary (see
        :mod:`repro.observability`): per-operator throughput, watermark
        lag, backpressure-stall time, checkpoint statistics, Cutty
        sharing counters and the span digest, renderable as text, JSON
        or Prometheus exposition.  The same sections on both backends; a
        multiprocess fleet adds ``workers``, ``fleet`` and ``exchange``.

        Always available after :meth:`execute`: the always-on counters
        (records in/out, checkpoints, Cutty cost tables) report with
        observability disabled; the runtime sections (stall time, lag
        and skew gauges, channel occupancy, spans, the ``metrics``
        registry snapshot) need ``EngineConfig(observability=True)``.
        """
        from repro.observability import JobReport
        if self._report is None:
            raise JobFailedError(
                "job_report() requires a completed execute()")
        return JobReport(self._report)
