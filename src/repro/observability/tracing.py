"""Lightweight span tracing for the runtime.

A :class:`TraceContext` is threaded through the engine and its tasks
when observability is enabled.  Spans mark the interesting intervals of
a run -- checkpoint barriers (trigger to seal/abort), window fires,
supervised restarts, fused-batch executions -- on the *simulated* clock,
so traces are deterministic and comparable across runs.

Two span shapes:

* **stack-nested** spans (:meth:`TraceContext.span`, a context manager)
  for work that opens and closes within one dispatch -- a window fire, a
  fused batch.  Nesting is tracked with an explicit stack (the engine is
  single-threaded by design), so a fire inside a fused batch becomes its
  child.
* **background** spans (:meth:`TraceContext.open_span` /
  :meth:`TraceContext.close_span`) for work that stays in flight across
  scheduler rounds -- a checkpoint from barrier injection to seal.
  Background spans capture their parent at open time but do not join the
  stack, so concurrent short spans are not mis-attributed to them.

Completed spans land in a fixed-capacity ring buffer: tracing never
grows without bound, the newest ``capacity`` spans win, and the number
of overwritten spans is reported (``dropped``).  Export is plain JSON.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional


class Span:
    """One traced interval on the simulated clock."""

    __slots__ = ("span_id", "parent_id", "name", "start_ms", "end_ms",
                 "attrs")

    def __init__(self, span_id: int, parent_id: Optional[int], name: str,
                 start_ms: int, attrs: Dict[str, Any]) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_ms = start_ms
        self.end_ms: Optional[int] = None
        self.attrs = attrs

    @property
    def duration_ms(self) -> Optional[int]:
        if self.end_ms is None:
            return None
        return self.end_ms - self.start_ms

    def as_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "id": self.span_id,
            "name": self.name,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "duration_ms": self.duration_ms,
        }
        if self.parent_id is not None:
            payload["parent"] = self.parent_id
        if self.attrs:
            payload["attrs"] = self.attrs
        return payload

    def __repr__(self) -> str:
        return "Span(%s, %s..%s, %r)" % (self.name, self.start_ms,
                                         self.end_ms, self.attrs)


class _SpanScope:
    """Context manager returned by :meth:`TraceContext.span`."""

    __slots__ = ("_trace", "_span")

    def __init__(self, trace: "TraceContext", span: Span) -> None:
        self._trace = trace
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None:
            self._span.attrs["error"] = repr(exc)
        self._trace._end_nested(self._span)


class TraceContext:
    """Ring-buffered span collector on a caller-supplied clock."""

    def __init__(self, clock_fn: Callable[[], int],
                 capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("trace capacity must be >= 1")
        self._now = clock_fn
        self.capacity = capacity
        self._ring: List[Span] = []
        self._cursor = 0          # next ring slot once full
        self._stack: List[Span] = []
        self._next_id = 1
        self.started = 0          # lifetime spans opened
        self.dropped = 0          # completed spans overwritten in the ring

    # -- span lifecycle ----------------------------------------------------

    def _new_span(self, name: str, parent_id: Optional[int],
                  attrs: Dict[str, Any]) -> Span:
        span = Span(self._next_id, parent_id, name, self._now(), attrs)
        self._next_id += 1
        self.started += 1
        return span

    def span(self, name: str, **attrs: Any) -> _SpanScope:
        """Open a stack-nested span; use as a context manager."""
        parent = self._stack[-1].span_id if self._stack else None
        span = self._new_span(name, parent, attrs)
        self._stack.append(span)
        return _SpanScope(self, span)

    def _end_nested(self, span: Span) -> None:
        span.end_ms = self._now()
        # The engine is single-threaded, so the span being closed is the
        # top of the stack; a mismatch means unbalanced instrumentation.
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        else:  # pragma: no cover - instrumentation bug guard
            self._stack = [s for s in self._stack if s is not span]
        self._record(span)

    def open_span(self, name: str, **attrs: Any) -> Span:
        """Open a background span that survives across rounds (e.g. a
        checkpoint).  It records its parent but does not join the stack."""
        parent = self._stack[-1].span_id if self._stack else None
        return self._new_span(name, parent, attrs)

    def close_span(self, span: Span, **attrs: Any) -> None:
        if attrs:
            span.attrs.update(attrs)
        span.end_ms = self._now()
        self._record(span)

    def event(self, name: str, **attrs: Any) -> None:
        """A zero-duration marker (restart granted, checkpoint aborted)."""
        span = self._new_span(name,
                              self._stack[-1].span_id if self._stack else None,
                              attrs)
        span.end_ms = span.start_ms
        self._record(span)

    def _record(self, span: Span) -> None:
        if len(self._ring) < self.capacity:
            self._ring.append(span)
            return
        self._ring[self._cursor] = span
        self._cursor = (self._cursor + 1) % self.capacity
        self.dropped += 1

    # -- reading -----------------------------------------------------------

    def finished_spans(self) -> List[Span]:
        """Retained spans in completion order (oldest first)."""
        if len(self._ring) < self.capacity:
            return list(self._ring)
        return self._ring[self._cursor:] + self._ring[:self._cursor]

    def spans_by_name(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for span in self.finished_spans():
            counts[span.name] = counts.get(span.name, 0) + 1
        return counts

    def digest(self) -> Dict[str, Any]:
        """The ``spans`` section of ``job_report()``."""
        return {"started": self.started, "dropped": self.dropped,
                "by_name": self.spans_by_name()}

    def export_json(self, indent: Optional[int] = None) -> str:
        return json.dumps({
            "spans": [span.as_dict() for span in self.finished_spans()],
            "started": self.started,
            "dropped": self.dropped,
            "capacity": self.capacity,
        }, indent=indent, default=repr)

    def __repr__(self) -> str:
        return ("TraceContext(retained=%d, started=%d, dropped=%d)"
                % (len(self._ring), self.started, self.dropped))
