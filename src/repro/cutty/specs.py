"""Window-deterministic functions (WDFs): Cutty's user-defined windows.

Cutty generalises slicing beyond periodic windows by letting the user
express *any deterministic window* as a function that -- observing the
in-order stream -- declares where windows **begin** and where they
**end**.  Slices are cut at begin points only; ends are served from
closed slices plus the running (open) slice partial.

A :class:`WindowSpec` communicates boundaries as ordered events:

* ``("begin", point, start_id)`` -- a window starts at ``point``;
  the slicer cuts here and registers ``start_id`` for later lookup;
* ``("end", point, start_id, (start, end))`` -- the window identified by
  ``start_id`` is complete and must be emitted.

Three hooks deliver the events around each element (the order is what
makes slicing correct on in-order streams):

* :meth:`on_time` -- time-driven boundaries with point <= the incoming
  element's timestamp; processed *before* the element is added, in
  (point, begin-before-end) order;
* :meth:`before_element` -- data/count-driven boundaries fired by the
  element itself but excluding it from ending windows (punctuations) or
  including it in beginning ones; processed before the add;
* :meth:`after_element` -- boundaries that include the just-added
  element (count-window ends); processed after the add.

``flush`` emits whatever should fire at end-of-stream, mirroring the
MAX-watermark flush of the standard window operator.

Two protected attributes tell the aggregator what it may skip and what
a checkpoint holds (``docs/cutty.md``, "The horizon contract"):

* ``_horizon`` -- ``on_time(ts)`` returns nothing while ``ts <
  _horizon``; ``None`` (the default) promises nothing, so the hook is
  called for every element;
* ``_cursor`` -- the names of the instance attributes that make up the
  spec's *position* in the stream.  Constructor arguments (sizes, gaps,
  callables) are not position: a restored spec is built by its factory
  and then moved to the position.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

BeginEvent = Tuple[str, Any, Any]              # ("begin", point, start_id)
EndEvent = Tuple[str, Any, Any, Tuple[Any, Any]]  # ("end", point, id, window)
BoundaryEvent = Tuple  # BeginEvent | EndEvent


def begin(point: Any, start_id: Any) -> BeginEvent:
    return ("begin", point, start_id)


def end(point: Any, start_id: Any, window: Tuple[Any, Any]) -> EndEvent:
    return ("end", point, start_id, window)


class WindowSpec:
    """One query's window definition, as a window-deterministic function."""

    #: True when Pairs/Panes-style periodic slicing could also express this.
    is_periodic = False

    #: ``on_time(ts)`` has nothing to report while ``ts < _horizon``; a
    #: spec that keeps it refreshes it wherever its position moves and
    #: lists it in ``_cursor``.  ``None``: always ask.
    _horizon: Optional[int] = None

    #: Instance attributes a checkpoint holds of this spec.  ``None``
    #: (a spec that declares nothing): every instance attribute.
    _cursor: Optional[Tuple[str, ...]] = None

    def _position(self) -> dict:
        """The spec's position, for a checkpoint: a view the task
        serialises at the barrier."""
        if self._cursor is None:
            return dict(self.__dict__)
        return {name: getattr(self, name) for name in self._cursor}

    def _seek(self, position: dict) -> None:
        self.__dict__.update(position)

    def on_time(self, ts: int) -> List[BoundaryEvent]:
        return []

    def before_element(self, value: Any, ts: int, seq: int) -> List[BoundaryEvent]:
        return []

    def after_element(self, value: Any, ts: int, seq: int) -> List[BoundaryEvent]:
        return []

    def flush(self, max_ts: int) -> List[BoundaryEvent]:
        return []

    def assign(self, ts: int, seq: int) -> List[Tuple[Any, Any]]:
        """Eager-mode window assignment (which windows contain this
        element); used by per-window baselines, not by Cutty itself."""
        raise NotImplementedError(
            "%s has no eager assignment" % type(self).__name__)


class PeriodicWindows(WindowSpec):
    """Sliding/tumbling windows ``[k*slide, k*slide + size)``.

    Alignment is lazy: boundary generation starts at the first element, so
    a stream beginning at a large timestamp does not enumerate windows
    from zero.  Windows that contain the first element but started before
    it are still registered (their early slices are simply absent).
    """

    is_periodic = True
    _cursor = ("_next_begin", "_next_end_start", "_horizon")

    def __init__(self, size: int, slide: Optional[int] = None) -> None:
        if size <= 0:
            raise ValueError("window size must be positive")
        slide = size if slide is None else slide
        if slide <= 0 or slide > size:
            raise ValueError("slide must satisfy 0 < slide <= size")
        self.size = size
        self.slide = slide
        self._next_begin: Optional[int] = None
        self._next_end_start: Optional[int] = None

    def on_time(self, ts: int) -> List[BoundaryEvent]:
        size, slide = self.size, self.slide
        next_begin = self._next_begin
        if next_begin is None:
            # Windows containing the first element: starts in (ts-size, ts].
            next_begin = ((ts - size) // slide + 1) * slide
            self._next_end_start = next_begin
        next_end = self._next_end_start + size
        # Begins and ends are each ascending; merge them in (point,
        # begin-before-end) order.
        events = []
        while True:
            if next_begin <= ts and next_begin <= next_end:
                events.append(begin(next_begin, next_begin))
                next_begin += slide
            elif next_end <= ts:
                events.append(end(next_end, next_end - size,
                                  (next_end - size, next_end)))
                next_end += slide
            else:
                break
        self._next_begin = next_begin
        self._next_end_start = next_end - size
        self._horizon = min(next_begin, next_end)
        return events

    def flush(self, max_ts: int) -> List[BoundaryEvent]:
        # Moves only the end cursor forward: the horizon stays a lower
        # bound (too early costs one empty on_time call, never an event).
        if self._next_end_start is None:
            return []
        events = []
        while self._next_end_start <= max_ts:
            start = self._next_end_start
            events.append(end(start + self.size, start,
                              (start, start + self.size)))
            self._next_end_start += self.slide
        return events

    def assign(self, ts: int, seq: int) -> List[Tuple[int, int]]:
        windows = []
        start = ts - (ts % self.slide)
        while start > ts - self.size:
            windows.append((start, start + self.size))
            start -= self.slide
        return windows

    def __repr__(self) -> str:
        return "PeriodicWindows(size=%d, slide=%d)" % (self.size, self.slide)


class SessionWindows(WindowSpec):
    """Sessions closed by ``gap`` of event-time inactivity.

    Non-periodic: begin/end points depend on the data, which is exactly
    the class of windows Pairs/Panes cannot slice and Cutty can.
    """

    _cursor = ("_session_start", "_last_ts", "_horizon")

    def __init__(self, gap: int) -> None:
        if gap <= 0:
            raise ValueError("session gap must be positive")
        self.gap = gap
        self._session_start: Optional[int] = None
        self._last_ts: Optional[int] = None

    def on_time(self, ts: int) -> List[BoundaryEvent]:
        if self._session_start is None:
            self._session_start = ts
            return [begin(ts, ts)]
        if ts > self._last_ts + self.gap:
            close = self._last_ts + self.gap
            events = [end(close, self._session_start,
                          (self._session_start, close)),
                      begin(ts, ts)]
            self._session_start = ts
            return events
        return []

    def after_element(self, value: Any, ts: int, seq: int) -> List[BoundaryEvent]:
        self._last_ts = ts
        # The session closes at the first element *past* this point.
        self._horizon = ts + self.gap
        return []

    def flush(self, max_ts: int) -> List[BoundaryEvent]:
        if self._session_start is None:
            return []
        close = self._last_ts + self.gap
        events = [end(close, self._session_start,
                      (self._session_start, close))]
        self._session_start = None
        self._horizon = None  # the next element opens a session
        return events

    def __repr__(self) -> str:
        return "SessionWindows(gap=%d)" % self.gap


class CountWindows(WindowSpec):
    """Count-based windows: ``size`` tuples, starting every ``slide``
    tuples.  Boundaries are driven by element sequence numbers, with
    window identities reported in the count domain ``(start_seq,
    end_seq_exclusive)``."""

    _cursor = ()  # boundaries are a function of seq alone

    def __init__(self, size: int, slide: Optional[int] = None) -> None:
        if size <= 0:
            raise ValueError("window size must be positive")
        slide = size if slide is None else slide
        if slide <= 0 or slide > size:
            raise ValueError("slide must satisfy 0 < slide <= size")
        self.size = size
        self.slide = slide

    def before_element(self, value: Any, ts: int, seq: int) -> List[BoundaryEvent]:
        if seq % self.slide == 0:
            return [begin(ts, seq)]
        return []

    def after_element(self, value: Any, ts: int, seq: int) -> List[BoundaryEvent]:
        start = seq - self.size + 1
        if start >= 0 and start % self.slide == 0:
            return [end(ts, start, (start, seq + 1))]
        return []

    def assign(self, ts: int, seq: int) -> List[Tuple[int, int]]:
        windows = []
        start = seq - (seq % self.slide)
        while start > seq - self.size:
            if start >= 0:
                windows.append((start, start + self.size))
            start -= self.slide
        return windows

    def __repr__(self) -> str:
        return "CountWindows(size=%d, slide=%d)" % (self.size, self.slide)


class DeltaWindows(WindowSpec):
    """Delta threshold windows: a new window begins whenever the observed
    value drifts from the current window's opening value by at least
    ``delta`` (Cutty's running example of a content-sensitive,
    non-periodic user-defined window).

    ``value_fn`` extracts the numeric measure from the record.
    """

    _cursor = ("_window_start", "_opening_value", "_last_ts")

    def __init__(self, delta: float,
                 value_fn: Callable[[Any], float] = float) -> None:
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.delta = delta
        self.value_fn = value_fn
        self._window_start: Optional[int] = None
        self._opening_value: Optional[float] = None
        self._last_ts: Optional[int] = None

    def before_element(self, value: Any, ts: int, seq: int) -> List[BoundaryEvent]:
        measure = self.value_fn(value)
        if self._window_start is None:
            self._window_start = ts
            self._opening_value = measure
            return [begin(ts, ts)]
        if abs(measure - self._opening_value) >= self.delta:
            events = [end(ts, self._window_start,
                          (self._window_start, ts)),
                      begin(ts, ts)]
            self._window_start = ts
            self._opening_value = measure
            return events
        return []

    def after_element(self, value: Any, ts: int, seq: int) -> List[BoundaryEvent]:
        self._last_ts = ts
        return []

    def flush(self, max_ts: int) -> List[BoundaryEvent]:
        if self._window_start is None:
            return []
        events = [end(self._last_ts + 1, self._window_start,
                      (self._window_start, self._last_ts + 1))]
        self._window_start = None
        return events

    def __repr__(self) -> str:
        return "DeltaWindows(delta=%r)" % self.delta


class PunctuationWindows(WindowSpec):
    """Windows delimited by data-driven punctuation marks: a new window
    begins at every element matching ``predicate`` (and at the first
    element); the previous window ends just before it."""

    _cursor = ("_current_start", "_last_ts")

    def __init__(self, predicate: Callable[[Any], bool]) -> None:
        self.predicate = predicate
        self._current_start: Optional[int] = None
        self._last_ts: Optional[int] = None

    def before_element(self, value: Any, ts: int, seq: int) -> List[BoundaryEvent]:
        if self._current_start is None:
            self._current_start = ts
            return [begin(ts, ts)]
        if self.predicate(value):
            events = [end(ts, self._current_start,
                          (self._current_start, ts)),
                      begin(ts, ts)]
            self._current_start = ts
            return events
        return []

    def after_element(self, value: Any, ts: int, seq: int) -> List[BoundaryEvent]:
        self._last_ts = ts
        return []

    def flush(self, max_ts: int) -> List[BoundaryEvent]:
        if self._current_start is None:
            return []
        events = [end(self._last_ts + 1, self._current_start,
                      (self._current_start, self._last_ts + 1))]
        self._current_start = None
        return events

    def __repr__(self) -> str:
        return "PunctuationWindows(%r)" % self.predicate
