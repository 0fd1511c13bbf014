"""Keyed state, state backends and checkpointing (asynchronous barrier
snapshotting)."""

from repro.state.arrangement import (
    Arrangement,
    ArrangementHandle,
    ShardedArrangement,
    VersionCompactedError,
)
from repro.state.backend import KeyedStateBackend
from repro.state.checkpoint import (
    CheckpointCoordinator,
    CheckpointStore,
    CompletedCheckpoint,
    PendingCheckpoint,
    TaskSnapshot,
)
from repro.state.durable import (
    CheckpointCorruptionError,
    DurableCheckpointStore,
)
from repro.state.savepoint import OperatorSnapshot, Savepoint
from repro.state.timetravel import TimeTravelError, savepoint_from_checkpoint
from repro.state.descriptors import (
    AggregatingState,
    AggregatingStateDescriptor,
    ListState,
    ListStateDescriptor,
    MapState,
    MapStateDescriptor,
    ReducingState,
    ReducingStateDescriptor,
    StateDescriptor,
    ValueState,
    ValueStateDescriptor,
)

__all__ = [
    "Arrangement",
    "ArrangementHandle",
    "ShardedArrangement",
    "VersionCompactedError",
    "KeyedStateBackend",
    "OperatorSnapshot",
    "Savepoint",
    "CheckpointCorruptionError",
    "CheckpointCoordinator",
    "CheckpointStore",
    "CompletedCheckpoint",
    "DurableCheckpointStore",
    "PendingCheckpoint",
    "TaskSnapshot",
    "TimeTravelError",
    "savepoint_from_checkpoint",
    "AggregatingState",
    "AggregatingStateDescriptor",
    "ListState",
    "ListStateDescriptor",
    "MapState",
    "MapStateDescriptor",
    "ReducingState",
    "ReducingStateDescriptor",
    "StateDescriptor",
    "ValueState",
    "ValueStateDescriptor",
]
