"""Timer service: per-key event-time and processing-time timers.

Window triggers, session-gap detection and `process`-function callbacks
are all expressed through timers.  The service keeps two priority queues
of ``(timestamp, key, namespace)`` entries; the runtime drains the
event-time queue whenever the operator's combined watermark advances and
the processing-time queue whenever the simulated clock advances.

Registering the same ``(timestamp, key, namespace)`` twice is a no-op,
matching Flink semantics (important for triggers that re-register on
every element).
"""

from __future__ import annotations

import heapq
from typing import Any, Hashable, List, Set, Tuple

TimerEntry = Tuple[int, Any, Hashable]


class TimerQueue:
    """A deduplicating min-heap of timers.

    Keys and namespaces can be of arbitrary (mutually incomparable) types,
    so heap entries carry a monotonically increasing sequence number as a
    tiebreaker: ordering is ``(timestamp, registration order)`` and never
    touches the key/namespace.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Any, Hashable]] = []
        self._registered: Set[TimerEntry] = set()
        self._sequence = 0

    def register(self, timestamp: int, key: Any, namespace: Hashable) -> bool:
        """Register a timer; returns ``False`` if it already existed."""
        entry = (timestamp, key, namespace)
        if entry in self._registered:
            return False
        self._registered.add(entry)
        heapq.heappush(self._heap, (timestamp, self._sequence, key, namespace))
        self._sequence += 1
        return True

    def delete(self, timestamp: int, key: Any, namespace: Hashable) -> bool:
        """Lazily delete a timer; returns ``False`` if it was not registered."""
        entry = (timestamp, key, namespace)
        if entry not in self._registered:
            return False
        self._registered.discard(entry)
        return True

    def pop_due(self, up_to_inclusive: int) -> List[TimerEntry]:
        """Remove and return all timers with ``timestamp <= up_to_inclusive``,
        in timestamp order."""
        due: List[TimerEntry] = []
        while self._heap and self._heap[0][0] <= up_to_inclusive:
            timestamp, _, key, namespace = heapq.heappop(self._heap)
            entry = (timestamp, key, namespace)
            if entry in self._registered:  # skip lazily-deleted entries
                self._registered.discard(entry)
                due.append(entry)
        return due

    def peek_timestamp(self) -> int:
        """Earliest live timer timestamp, or a huge sentinel when empty."""
        while self._heap:
            timestamp, _, key, namespace = self._heap[0]
            if (timestamp, key, namespace) in self._registered:
                return timestamp
            heapq.heappop(self._heap)
        return 2**62

    def __len__(self) -> int:
        return len(self._registered)

    def snapshot(self) -> List[TimerEntry]:
        """Live timers in exact firing order (timestamp, then registration
        sequence).  Preserving the sequence tiebreak matters: equal-time
        timers (e.g. a window's trigger and its cleanup) must fire after
        restore in the same relative order as they would have originally,
        or restored state can be garbage-collected before it fires."""
        ordered: List[TimerEntry] = []
        seen: Set[TimerEntry] = set()
        for timestamp, _, key, namespace in sorted(
                self._heap, key=lambda item: (item[0], item[1])):
            entry = (timestamp, key, namespace)
            if entry in self._registered and entry not in seen:
                seen.add(entry)
                ordered.append(entry)
        return ordered

    def restore(self, entries: List[TimerEntry]) -> None:
        self._heap = []
        self._registered = set()
        self._sequence = 0
        for timestamp, key, namespace in entries:
            self.register(timestamp, key, namespace)


class TimerService:
    """The pair of timer queues an operator instance owns."""

    def __init__(self) -> None:
        self.event_time = TimerQueue()
        self.processing_time = TimerQueue()

    def register_event_time_timer(self, timestamp: int, key: Any,
                                  namespace: Hashable = None) -> None:
        self.event_time.register(timestamp, key, namespace)

    def register_processing_time_timer(self, timestamp: int, key: Any,
                                       namespace: Hashable = None) -> None:
        self.processing_time.register(timestamp, key, namespace)

    def delete_event_time_timer(self, timestamp: int, key: Any,
                                namespace: Hashable = None) -> None:
        self.event_time.delete(timestamp, key, namespace)

    def snapshot(self) -> dict:
        return {
            "event_time": self.event_time.snapshot(),
            "processing_time": self.processing_time.snapshot(),
        }

    def restore(self, state: dict) -> None:
        self.event_time.restore(state.get("event_time", []))
        self.processing_time.restore(state.get("processing_time", []))
