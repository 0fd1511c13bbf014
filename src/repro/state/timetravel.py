"""Time-travel restore: turn a durably persisted checkpoint into a
:class:`~repro.state.savepoint.Savepoint` without a live engine.

A :class:`~repro.state.durable.DurableCheckpointStore` outlives the
process that wrote it; :func:`savepoint_from_checkpoint` re-reads a
verified checkpoint from disk and repackages its per-vertex task
snapshots as per-operator savepoint state, so a *fresh* execution of the
same program can resume from any retained point in time::

    savepoint = savepoint_from_checkpoint("/ckpts", env)   # latest
    savepoint = savepoint_from_checkpoint("/ckpts", env, checkpoint_id=7)
    new_env.execute(from_savepoint=savepoint)

This is what makes hybrid history+stream jobs restartable across
process death, on either backend: the
:class:`~repro.connectors.sources.HybridSource` offsets (which side of
the cutover to replay, and from where) live in the checkpointed operator
state like any other source offsets.

The program handed in must be the *same* program (same operator names
and chaining) that wrote the checkpoint; vertex layout is recomputed
from its job graph to map chain positions back to operator names.
"""

from __future__ import annotations

from typing import Optional

from repro.state.durable import (
    CheckpointCorruptionError,
    DurableCheckpointStore,
)
from repro.state.savepoint import Savepoint, savepoint_from_completed


class TimeTravelError(Exception):
    """The requested checkpoint cannot be repackaged as a savepoint."""


def savepoint_from_checkpoint(checkpoint_dir: str, program,
                              checkpoint_id: Optional[int] = None,
                              ) -> Savepoint:
    """Load a durable checkpoint from ``checkpoint_dir`` and repackage
    it as a :class:`Savepoint` for ``program`` (an ``Environment``).

    ``checkpoint_id`` selects a specific retained checkpoint (see
    :meth:`DurableCheckpointStore.persisted_ids`); by default the latest
    verified one is used.  Raises :class:`TimeTravelError` when that
    checkpoint is missing or corrupt, or does not cover the program's
    subtasks.
    """
    store = DurableCheckpointStore(checkpoint_dir, fresh=False)
    if checkpoint_id is not None:
        try:
            completed = store.load_verified(checkpoint_id)
        except CheckpointCorruptionError as exc:
            raise TimeTravelError(
                "checkpoint %d in %r is missing or corrupt: %s"
                % (checkpoint_id, checkpoint_dir, exc)) from exc
    else:
        completed = store.load_latest_verified()
        if completed is None:
            raise TimeTravelError(
                "no verified checkpoint in %r" % checkpoint_dir)
    return savepoint_from_completed(completed, program.build_job_graph(),
                                    TimeTravelError)
