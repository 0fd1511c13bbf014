"""Window assigners: which windows an element belongs to.

The repertoire covers the full spectrum the STREAMLINE model exposes:
periodic (tumbling, sliding), non-periodic data-driven (session), and
global windows for count/custom triggers.  Sliding windows with
``slide < size`` assign each element to ``size / slide`` windows -- the
redundancy Cutty's slicing removes.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.windowing.windows import GlobalWindow, TimeWindow


class WindowAssigner:
    """Maps ``(value, timestamp)`` to the windows containing it: a list
    to read, not to change (periodic assigners share it between calls)."""

    is_event_time = True

    def assign(self, value: Any, timestamp: int) -> List[Any]:
        raise NotImplementedError

    @property
    def is_merging(self) -> bool:
        return False


def _intern(cache: Dict[Any, List[TimeWindow]], start: Any,
            windows: List[TimeWindow]) -> List[TimeWindow]:
    """Remember ``windows`` for ``start``, forgetting the oldest of 8:
    out-of-order events inside the watermark bound alternate between
    two windows at every boundary, where one entry would thrash."""
    if len(cache) >= 8:
        del cache[next(iter(cache))]
    cache[start] = windows
    return windows


class TumblingEventTimeWindows(WindowAssigner):
    """Fixed-size, gap-free, non-overlapping windows."""

    def __init__(self, size: int, offset: int = 0) -> None:
        if size <= 0:
            raise ValueError("window size must be positive")
        if not 0 <= offset < size:
            raise ValueError("offset must satisfy 0 <= offset < size")
        self.size = size
        self.offset = offset
        #: One TimeWindow per window, not per record: state and timer
        #: probes hit identity before ``__eq__``, snapshots memoise it.
        self._interned: Dict[int, List[TimeWindow]] = {}

    @classmethod
    def of(cls, size: int, offset: int = 0) -> "TumblingEventTimeWindows":
        return cls(size, offset)

    def assign(self, value: Any, timestamp: int) -> List[TimeWindow]:
        start = timestamp - ((timestamp - self.offset) % self.size)
        return self._interned.get(start) or _intern(
            self._interned, start, [TimeWindow(start, start + self.size)])

    def __repr__(self) -> str:
        return "TumblingEventTimeWindows(size=%d)" % self.size


class SlidingEventTimeWindows(WindowAssigner):
    """Overlapping windows of ``size``, started every ``slide``.

    Each element lands in ``ceil(size / slide)`` windows; re-aggregating
    every one of them independently is the cost Cutty's sharing removes.
    """

    def __init__(self, size: int, slide: int, offset: int = 0) -> None:
        if size <= 0 or slide <= 0:
            raise ValueError("size and slide must be positive")
        if slide > size:
            raise ValueError(
                "slide > size would drop elements; use tumbling windows")
        if not 0 <= offset < slide:
            raise ValueError("offset must satisfy 0 <= offset < slide")
        self.size = size
        self.slide = slide
        self.offset = offset
        self._interned: Dict[Any, List[TimeWindow]] = {}

    @classmethod
    def of(cls, size: int, slide: int,
           offset: int = 0) -> "SlidingEventTimeWindows":
        return cls(size, slide, offset)

    def assign(self, value: Any, timestamp: int) -> List[TimeWindow]:
        last_start = timestamp - ((timestamp - self.offset) % self.slide)
        # Those starting in (timestamp - size, last_start]: one fewer
        # late in a slide when size is no multiple of it.
        count = (last_start - timestamp + self.size - 1) // self.slide + 1
        return self._interned.get((last_start, count)) or _intern(
            self._interned, (last_start, count),
            [TimeWindow(start, start + self.size) for start in range(
                last_start, last_start - count * self.slide, -self.slide)])

    def __repr__(self) -> str:
        return "SlidingEventTimeWindows(size=%d, slide=%d)" % (self.size,
                                                               self.slide)


class EventTimeSessionWindows(WindowAssigner):
    """Data-driven windows closed by a period of inactivity.

    Non-periodic: window boundaries depend on the data, so slicing
    techniques restricted to periodic windows (Pairs, Panes) cannot be
    applied -- the case motivating Cutty's generality.
    """

    def __init__(self, gap: int) -> None:
        if gap <= 0:
            raise ValueError("session gap must be positive")
        self.gap = gap

    @classmethod
    def with_gap(cls, gap: int) -> "EventTimeSessionWindows":
        return cls(gap)

    def assign(self, value: Any, timestamp: int) -> List[TimeWindow]:
        # A proto-window; the merging machinery in the window operator
        # coalesces it with overlapping in-flight sessions.
        return [TimeWindow(timestamp, timestamp + self.gap)]

    @property
    def is_merging(self) -> bool:
        return True

    def __repr__(self) -> str:
        return "EventTimeSessionWindows(gap=%d)" % self.gap


class GlobalWindows(WindowAssigner):
    """Everything in one window; pair with a count or custom trigger."""

    is_event_time = False

    @classmethod
    def create(cls) -> "GlobalWindows":
        return cls()

    def assign(self, value: Any, timestamp: int) -> List[GlobalWindow]:
        return [GlobalWindow()]

    def __repr__(self) -> str:
        return "GlobalWindows()"


class TumblingProcessingTimeWindows(TumblingEventTimeWindows):
    """Tumbling windows over the (simulated) processing-time clock."""

    is_event_time = False

    def __repr__(self) -> str:
        return "TumblingProcessingTimeWindows(size=%d)" % self.size
