"""State descriptors and state handles for keyed operator state.

Mirrors the Flink state API that the STREAMLINE programming model
inherits: an operator declares *what* state it needs via a descriptor
(name + kind + optional default/merge function), and receives a handle
whose reads and writes are implicitly scoped to the key of the record
currently being processed.

Handles are thin views over a :class:`~repro.state.backend.KeyedStateBackend`;
they hold no data themselves, so snapshotting the backend captures
everything.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class StateDescriptor:
    """Name and semantics of one piece of keyed state."""

    kind = "value"

    def __init__(self, name: str, default: Any = None) -> None:
        if not name:
            raise ValueError("state name must be non-empty")
        self.name = name
        self.default = default

    def __repr__(self) -> str:
        return "%s(%r)" % (type(self).__name__, self.name)


class ValueStateDescriptor(StateDescriptor):
    kind = "value"


class ListStateDescriptor(StateDescriptor):
    kind = "list"


class MapStateDescriptor(StateDescriptor):
    kind = "map"


class ReducingStateDescriptor(StateDescriptor):
    """State that folds every added element through ``reduce_fn``."""

    kind = "reducing"

    def __init__(self, name: str,
                 reduce_fn: Callable[[Any, Any], Any]) -> None:
        super().__init__(name)
        self.reduce_fn = reduce_fn


class AggregatingStateDescriptor(StateDescriptor):
    """State that maintains an accumulator through an AggregateFunction-like
    object exposing ``create_accumulator/add/get_result``."""

    kind = "aggregating"

    def __init__(self, name: str, aggregate_function: Any) -> None:
        super().__init__(name)
        self.aggregate_function = aggregate_function


class _KeyScoped:
    """Shared plumbing: resolve the per-key slot inside the backend."""

    def __init__(self, backend: Any, descriptor: StateDescriptor) -> None:
        self._backend = backend
        self._descriptor = descriptor
        #: The backend's ``{key: value}`` table of this state.  Held for
        #: the handle's lifetime: the backend restores and clears its
        #: tables in place.
        self._rows: Dict[Any, Any] = backend.table(descriptor.name)

    def _key(self) -> Any:
        key = self._backend.current_key
        if key is _NO_KEY:
            raise RuntimeError(
                "keyed state %r accessed outside of a keyed context"
                % self._descriptor.name)
        return key


_NO_KEY = object()


class ValueState(_KeyScoped):
    """A single value per key."""

    def value(self) -> Any:
        return self._rows.get(self._key(), self._descriptor.default)

    def update(self, value: Any) -> None:
        self._rows[self._key()] = value

    def clear(self) -> None:
        self._rows.pop(self._key(), None)


class ListState(_KeyScoped):
    """An appendable list per key."""

    def get(self) -> List[Any]:
        return self._rows.get(self._key(), [])

    def add(self, value: Any) -> None:
        self._rows.setdefault(self._key(), []).append(value)

    def update(self, values: List[Any]) -> None:
        self._rows[self._key()] = list(values)

    def clear(self) -> None:
        self._rows.pop(self._key(), None)


class MapState(_KeyScoped):
    """A hash map per key.

    A key owns a slot in the backend only while its map has entries: the
    slot is created by the first ``put`` and dropped by the ``remove``
    that empties the map, so keys that come and go leave nothing behind.
    """

    def mapping(self, create: bool = False) -> Optional[Dict[Any, Any]]:
        """The current key's live dict, or ``None`` when the key has no
        entries and ``create`` is false.

        For callers that touch several entries of one key per record:
        reads and stores on the returned dict are the state.  It is only
        valid until the next record or restore; delete through
        :meth:`remove`, which gives an emptied map's slot back.
        """
        key = self._key()
        entries = self._rows.get(key)
        if entries is None and create:
            entries = self._rows[key] = {}
        return entries

    def get(self, map_key: Any, default: Any = None) -> Any:
        entries = self.mapping()
        return default if entries is None else entries.get(map_key, default)

    def put(self, map_key: Any, value: Any) -> None:
        self.mapping(create=True)[map_key] = value

    def remove(self, map_key: Any) -> None:
        entries = self.mapping()
        if entries is not None:
            entries.pop(map_key, None)
            if not entries:
                del self._rows[self._key()]

    def contains(self, map_key: Any) -> bool:
        entries = self.mapping()
        return entries is not None and map_key in entries

    def keys(self) -> Iterator[Any]:
        return iter(list(self.mapping() or ()))

    def items(self) -> Iterator[Tuple[Any, Any]]:
        return iter(list((self.mapping() or {}).items()))

    def is_empty(self) -> bool:
        return not self.mapping()

    def clear(self) -> None:
        self._rows.pop(self._key(), None)


class ReducingState(_KeyScoped):
    """Folds added values through the descriptor's reduce function."""

    def add(self, value: Any) -> None:
        table = self._rows
        key = self._key()
        if key in table:
            table[key] = self._descriptor.reduce_fn(table[key], value)
        else:
            table[key] = value

    def get(self) -> Any:
        return self._rows.get(self._key())

    def clear(self) -> None:
        self._rows.pop(self._key(), None)


class AggregatingState(_KeyScoped):
    """Maintains an accumulator; ``get`` lowers it to a result."""

    def add(self, value: Any) -> None:
        table = self._rows
        key = self._key()
        agg = self._descriptor.aggregate_function
        if key not in table:
            table[key] = agg.create_accumulator()
        table[key] = agg.add(value, table[key])

    def get(self) -> Any:
        table = self._rows
        key = self._key()
        if key not in table:
            return None
        return self._descriptor.aggregate_function.get_result(table[key])

    def clear(self) -> None:
        self._rows.pop(self._key(), None)


_HANDLE_TYPES = {
    "value": ValueState,
    "list": ListState,
    "map": MapState,
    "reducing": ReducingState,
    "aggregating": AggregatingState,
}


def create_handle(backend: Any, descriptor: StateDescriptor) -> _KeyScoped:
    try:
        handle_type = _HANDLE_TYPES[descriptor.kind]
    except KeyError:
        raise ValueError("unknown state kind %r" % descriptor.kind) from None
    return handle_type(backend, descriptor)
