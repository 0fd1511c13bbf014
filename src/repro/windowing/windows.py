"""Window types.

A window is a (half-open) span of event time ``[start, end)``.  Its
``max_timestamp`` (``end - 1``) is the event-time point at which an
event-time trigger fires, and the timestamp stamped onto emitted window
results -- guaranteeing results are never late with respect to the
watermark that triggered them.
"""

from __future__ import annotations

from typing import Iterable, List


class TimeWindow:
    """Half-open event-time interval ``[start, end)``.

    Immutable: nothing is assigned after construction, so the hash and
    ``max_timestamp`` every state and timer probe asks for are computed
    once here instead of on every call.
    """

    __slots__ = ("start", "end", "max_timestamp", "_hash")

    def __init__(self, start: int, end: int) -> None:
        if end <= start:
            raise ValueError("window end must exceed start: [%d, %d)"
                             % (start, end))
        self.start = start
        self.end = end
        self.max_timestamp = end - 1
        self._hash = hash((start, end))

    @property
    def size(self) -> int:
        return self.end - self.start

    def intersects(self, other: "TimeWindow") -> bool:
        """True when the two windows overlap *or touch* -- touching session
        windows must merge (a gap of zero between activity bursts means
        the session never went quiet)."""
        return self.start <= other.end and other.start <= self.end

    def cover(self, other: "TimeWindow") -> "TimeWindow":
        return TimeWindow(min(self.start, other.start),
                          max(self.end, other.end))

    def contains(self, timestamp: int) -> bool:
        return self.start <= timestamp < self.end

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TimeWindow)
                and self.start == other.start and self.end == other.end)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Pickle (and deep-copy) as the two bounds; the derived slots
        # are rebuilt by the constructor.
        return (TimeWindow, (self.start, self.end))

    def __lt__(self, other: "TimeWindow") -> bool:
        return (self.start, self.end) < (other.start, other.end)

    def __repr__(self) -> str:
        return "TimeWindow[%d, %d)" % (self.start, self.end)


class GlobalWindow:
    """The single all-encompassing window used with count/custom triggers."""

    _INSTANCE: "GlobalWindow" = None

    def __new__(cls) -> "GlobalWindow":
        if cls._INSTANCE is None:
            cls._INSTANCE = super().__new__(cls)
        return cls._INSTANCE

    @property
    def max_timestamp(self) -> int:
        from repro.runtime.elements import MAX_TIMESTAMP
        return MAX_TIMESTAMP

    def __repr__(self) -> str:
        return "GlobalWindow"


def merge_windows(windows: Iterable[TimeWindow]) -> List[List[TimeWindow]]:
    """Group overlapping/touching windows into merge sets (session logic).

    Returns a list of groups; each group with more than one member must be
    merged into its covering window.
    """
    ordered = sorted(windows)
    groups: List[List[TimeWindow]] = []
    current: List[TimeWindow] = []
    current_cover: TimeWindow = None
    for window in ordered:
        if current_cover is not None and window.start <= current_cover.end:
            current.append(window)
            current_cover = current_cover.cover(window)
        else:
            if current:
                groups.append(current)
            current = [window]
            current_cover = window
    if current:
        groups.append(current)
    return groups
