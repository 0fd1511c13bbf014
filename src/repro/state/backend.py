"""In-memory keyed state backend.

One backend instance exists per operator subtask.  It owns every state
table the subtask declared and the notion of the *current key* -- set by
the task before each record/timer callback -- so handles created by
:func:`repro.state.descriptors.create_handle` resolve to the right slot.

:meth:`KeyedStateBackend.snapshot` hands the live tables to the task,
which serialises them into its
:class:`~repro.state.checkpoint.TaskSnapshot` synchronously at barrier
alignment -- the state-capture half of asynchronous barrier
snapshotting, and the one copy a checkpoint takes.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable

from repro.state.descriptors import (
    StateDescriptor,
    _NO_KEY,
    create_handle,
)


class KeyedStateBackend:
    """Holds ``{state_name: {key: value}}`` tables for one subtask."""

    def __init__(self) -> None:
        self._tables: Dict[str, Dict[Any, Any]] = {}
        self._descriptors: Dict[str, StateDescriptor] = {}
        self.current_key: Any = _NO_KEY

    def get_state(self, descriptor: StateDescriptor):
        """Register ``descriptor`` (idempotently) and return a handle."""
        existing = self._descriptors.get(descriptor.name)
        if existing is not None and existing.kind != descriptor.kind:
            raise ValueError(
                "state %r already registered with kind %r, requested %r"
                % (descriptor.name, existing.kind, descriptor.kind))
        self._descriptors[descriptor.name] = descriptor
        self._tables.setdefault(descriptor.name, {})
        return create_handle(self, descriptor)

    def table(self, name: str) -> Dict[Any, Any]:
        return self._tables.setdefault(name, {})

    def set_current_key(self, key: Any) -> None:
        self.current_key = key

    def clear_current_key(self) -> None:
        self.current_key = _NO_KEY

    def keys(self, state_name: str) -> Iterable[Any]:
        return list(self._tables.get(state_name, {}).keys())

    def num_entries(self) -> int:
        return sum(len(table) for table in self._tables.values())

    def snapshot(self) -> Dict[str, Dict[Any, Any]]:
        """All tables, live: a view the task serialises before any
        state handle runs again."""
        return self._tables

    def restore(self, snapshot: Dict[str, Dict[Any, Any]]) -> None:
        """Replace every table's rows with ``snapshot``'s, taking
        ownership of its values.

        In place: state handles hold on to their table, so the dict
        objects must survive a restore."""
        self.clear_all()
        for name, rows in snapshot.items():
            self.table(name).update(rows)

    def clear_all(self) -> None:
        for table in self._tables.values():
            table.clear()
