"""In-memory keyed state backend with copy-on-snapshot semantics.

One backend instance exists per operator subtask.  It owns every state
table the subtask declared and the notion of the *current key* -- set by
the task before each record/timer callback -- so handles created by
:func:`repro.state.descriptors.create_handle` resolve to the right slot.

Snapshots are deep copies taken synchronously at barrier alignment,
modelling the state-capture half of asynchronous barrier snapshotting.
"""

from __future__ import annotations

import copy
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
        """A deep, immutable-by-convention copy of all tables."""
        return copy.deepcopy(self._tables)

    def restore(self, snapshot: Dict[str, Dict[Any, Any]]) -> None:
        """Replace every table's rows with a deep copy of ``snapshot``.

        In place: state handles hold on to their table, so the dict
        objects must survive a restore."""
        self.clear_all()
        for name, rows in copy.deepcopy(snapshot).items():
            self.table(name).update(rows)

    def clear_all(self) -> None:
        for table in self._tables.values():
            table.clear()
