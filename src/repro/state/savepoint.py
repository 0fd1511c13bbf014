"""Savepoints: portable job state, restorable at different parallelism.

A savepoint packages per-**operator** state (not per-vertex: operator
chaining changes with parallelism, so vertices are not stable
identities — operator *names* are, like Flink's operator UIDs). A new
execution of the same program can resume from it, including with a
different parallelism for stateful processing operators. Redistribution
rules:

* **keyed state** — tables are merged across the old subtasks and each
  new subtask keeps the keys the engine's hash partitioner would send it
  (`owner_of_key(key, parallelism) == subtask_index`);
* **timers** — merged in timestamp order (stable per old subtask; keys
  are disjoint across old subtasks, so cross-subtask ties are
  independent) and filtered by the same key hash;
* **operator (non-keyed) state** — delegated to
  :meth:`repro.runtime.operators.Operator.rescale_operator_state`;
  operators whose state is a per-record-key dict (Cutty, streaming M4,
  CEP, group-reduce) merge-and-filter, others accept equal states only
  or define their own combination (the window operator takes the
  minimum watermark). Sources cannot rescale (replay ownership is
  positional), so source operators must keep their parallelism --
  unless they declare ``rescalable_source`` (partitioned sources do).

An operator whose parallelism did not change gets its old subtasks'
state back position by position.  :meth:`Savepoint.task_snapshots` is
the only reader of these rules.

Savepoint compatibility therefore requires unique operator names within
a program (pass ``name=`` to the fluent API); duplicates are rejected
when the savepoint is created.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.runtime.partition import owner_of_key
from repro.state.checkpoint import SubtaskId, TaskSnapshot, make_subtask_id


class OperatorSnapshot(NamedTuple):
    """One operator instance's state on one old subtask."""

    subtask_index: int
    keyed_state: Dict[str, Dict[Any, Any]]
    operator_state: Any
    timers: dict


class Savepoint:
    """State of one job run, grouped by operator name."""

    def __init__(self, operators: Dict[str, List[OperatorSnapshot]],
                 checkpoint_id: int) -> None:
        self.operators = operators
        self.checkpoint_id = checkpoint_id

    def snapshots_for(self, name: str) -> Optional[List[OperatorSnapshot]]:
        snapshots = self.operators.get(name)
        if snapshots is None:
            return None
        return sorted(snapshots, key=lambda snap: snap.subtask_index)

    def task_snapshots(self, job_graph: Any) -> Dict[SubtaskId, TaskSnapshot]:
        """This savepoint resolved against ``job_graph``: the restore
        map of a deployment, one :class:`TaskSnapshot` per subtask.
        Operators are matched by name, so chaining changes caused by a
        different parallelism are harmless."""
        # Imported here: both modules build on repro.state.
        from repro.runtime.engine import JobFailedError
        from repro.runtime.operators import SourceOperator
        restore: Dict[SubtaskId, TaskSnapshot] = {}
        for vertex_id, vertex in sorted(job_graph.vertices.items()):
            parallelism = vertex.parallelism
            # Per new subtask: keyed state, operator state and timers by
            # chain position, each snapshot built once they are whole.
            parts: List[Tuple[dict, dict, dict]] = [
                ({}, {}, {}) for _ in range(parallelism)]
            for position, name in enumerate(vertex.names):
                snapshots = self.snapshots_for(name)
                if snapshots is None:
                    raise JobFailedError(
                        "savepoint has no state for operator %r "
                        "(available: %r)" % (name, sorted(self.operators)))
                if len(snapshots) != parallelism:
                    operator = vertex.operator_factories[position]()
                    if (isinstance(operator, SourceOperator)
                            and not operator.rescalable_source):
                        raise JobFailedError(
                            "source operator %r cannot rescale (%d -> %d)"
                            % (name, len(snapshots), parallelism))
                    states = [snap.operator_state for snap in snapshots]
                    snapshots = [OperatorSnapshot(
                        index,
                        merge_keyed_state(snapshots, index, parallelism),
                        operator.rescale_operator_state(states, index,
                                                        parallelism),
                        merge_timers(snapshots, index, parallelism))
                        for index in range(parallelism)]
                key = str(position)
                for (keyed, operator_state, timers), snapshot in zip(
                        parts, snapshots):
                    keyed[key] = snapshot.keyed_state
                    operator_state[key] = snapshot.operator_state
                    timers[key] = snapshot.timers
            for index, (keyed, operator_state, timers) in enumerate(parts):
                subtask = make_subtask_id(vertex_id, vertex.name, index)
                restore[subtask] = TaskSnapshot(subtask, keyed,
                                                operator_state, timers)
        return restore

    def __repr__(self) -> str:
        return "Savepoint(checkpoint=%d, operators=%d)" % (
            self.checkpoint_id, len(self.operators))


def savepoint_from_completed(completed: Any, job_graph: Any,
                             error: type) -> Savepoint:
    """Repackage one completed checkpoint's per-vertex task snapshots
    as per-operator savepoint state for ``job_graph`` (chain positions
    map back to operator names through its vertices).  Raises
    ``error`` -- the caller's exception type -- on duplicate operator
    names or a subtask the checkpoint does not cover."""
    all_names = [name for vertex in job_graph.vertices.values()
                 for name in vertex.names]
    duplicates = {name for name in all_names if all_names.count(name) > 1}
    if duplicates:
        raise error(
            "savepoints need unique operator names; duplicated: %r "
            "(pass name=... to the fluent API)" % sorted(duplicates))
    operators: Dict[str, List[OperatorSnapshot]] = {}
    for vertex_id, vertex in sorted(job_graph.vertices.items()):
        for index in range(vertex.parallelism):
            subtask_id = make_subtask_id(vertex_id, vertex.name, index)
            snapshot = completed.snapshot_for(subtask_id)
            if snapshot is None:
                raise error(
                    "checkpoint %d lacks a snapshot for %r -- was it "
                    "written by a different program or parallelism?"
                    % (completed.checkpoint_id, subtask_id))
            state = snapshot.decode()
            for position, name in enumerate(vertex.names):
                key = str(position)
                operators.setdefault(name, []).append(OperatorSnapshot(
                    index,
                    state.keyed_state.get(key, {}),
                    state.operator_state.get(key),
                    state.timers.get(key, {})))
    return Savepoint(operators, completed.checkpoint_id)


def merge_keyed_state(snapshots: List[OperatorSnapshot],
                      subtask_index: int,
                      parallelism: int) -> Dict[str, Dict[Any, Any]]:
    """Union of all old subtasks' tables, filtered to this subtask's keys."""
    merged: Dict[str, Dict[Any, Any]] = {}
    for snapshot in snapshots:
        for state_name, table in snapshot.keyed_state.items():
            target = merged.setdefault(state_name, {})
            for key, value in table.items():
                if owner_of_key(key, parallelism) == subtask_index:
                    target[key] = value
    return merged


def merge_timers(snapshots: List[OperatorSnapshot], subtask_index: int,
                 parallelism: int) -> dict:
    """Timestamp-ordered merge of the old queues, filtered by key hash."""
    merged: dict = {}
    for queue_name in ("event_time", "processing_time"):
        streams = [snapshot.timers.get(queue_name, [])
                   for snapshot in snapshots]
        combined = list(heapq.merge(*streams, key=lambda entry: entry[0]))
        merged[queue_name] = [
            entry for entry in combined
            if owner_of_key(entry[1], parallelism) == subtask_index]
    return merged
