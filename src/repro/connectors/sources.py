"""File and generator connectors: getting data at rest and data in
motion into the unified API.

Error contract: connector failures must carry enough context to act on
-- a missing file names its path, a malformed record names its path
*and* line number -- because in a streaming job the raised exception is
all that reaches the restart strategy and, once it gives up, the caller.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

from repro.runtime.operators import (
    OperatorContext,
    ReplayCursor,
    SourceContext,
    SourceOperator,
)


def _require_file(path: str, connector: str) -> None:
    if not os.path.exists(path):
        raise FileNotFoundError(
            "%s: no such file: %r" % (connector, path))


def text_file_lines(path: str, strip: bool = True) -> Callable[[], Iterator[str]]:
    """A replayable factory over a text file's lines, for
    ``env.from_source``."""
    def factory() -> Iterator[str]:
        _require_file(path, "text_file_lines")
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                yield line.rstrip("\n") if strip else line
    return factory


def csv_records(path: str, types: Optional[Dict[str, Callable[[str], Any]]] = None
                ) -> Callable[[], Iterator[Dict[str, Any]]]:
    """A replayable factory of dict rows from a CSV file with a header.

    Rows whose width differs from the header's fail with the path and
    the 1-based line number of the offending row.
    """
    def factory() -> Iterator[Dict[str, Any]]:
        _require_file(path, "csv_records")
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                return
            for row in reader:
                if not row:
                    continue  # blank line
                if len(row) != len(header):
                    raise ValueError(
                        "csv_records: %s:%d: row has %d fields, "
                        "header has %d" % (path, reader.line_num,
                                           len(row), len(header)))
                record = dict(zip(header, row))
                if types:
                    try:
                        record = {key: (types[key](value) if key in types
                                        else value)
                                  for key, value in record.items()}
                    except (TypeError, ValueError) as exc:
                        raise ValueError(
                            "csv_records: %s:%d: type conversion failed: %s"
                            % (path, reader.line_num, exc)) from exc
                yield record
    return factory


def jsonl_records(path: str) -> Callable[[], Iterator[Any]]:
    """A replayable factory over a JSON-lines file.

    A malformed line fails with the path and 1-based line number, not
    just json's column offset.
    """
    def factory() -> Iterator[Any]:
        _require_file(path, "jsonl_records")
        with open(path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        "jsonl_records: %s:%d: malformed JSON (%s): %r"
                        % (path, line_number, exc.msg,
                           line if len(line) <= 80 else line[:77] + "...")
                    ) from exc
    return factory


def throttled(factory: Callable[[], Iterable[Any]],
              timestamps: Iterable[int]) -> Callable[[], Iterator[tuple]]:
    """Pair a value factory with an arrival process, producing the
    ``(value, timestamp)`` pairs that ``from_collection(...,
    timestamped=True)`` and replayable sources expect."""
    stamped = list(timestamps)

    def paired() -> Iterator[tuple]:
        for value, ts in zip(factory(), stamped):
            yield (value, ts)
    return paired


# ---------------------------------------------------------------------------
# Hybrid history + stream source
# ---------------------------------------------------------------------------

class HybridSource(SourceOperator):
    """History then stream as *one* source: the operator behind
    ``DataSet.then_stream`` and ``DataStream.with_history``.

    The bounded history side drains first -- at an elevated burst
    (``source_burst_factor``) so the prefix runs through the batched
    path -- then the operator switches to the live side in place.  Being
    a single unfinished source across the seam is what keeps barrier
    checkpoints (and therefore 2PC sinks and crash-restore) flowing over
    the cutover: the coordinator stops cutting once any source finishes,
    and this one only finishes when the *stream* side does.

    Cutover semantics:

    * ``cutover=None`` -- plain concatenation.  No seam watermark is
      emitted (stream records may legitimately carry event times older
      than the history's maximum); the unified run is element-for-element
      the single-source run over ``history + stream``.
    * ``cutover=T`` -- watermark-precise hand-off over possibly
      *overlapping* inputs: history records with event time ``> T`` and
      stream records with event time ``<= T`` are dropped (counted in the
      skip gauges), so every logical record is emitted exactly once; a
      ``Watermark(T)`` leaves at the seam, firing every window that ends
      at or before ``T`` from history state alone.  Every surviving
      stream record has event time ``> T``, so it can neither be late
      against the seam watermark nor extend a window the seam closed.

    Event time for the cutover filter comes from ``(value, timestamp)``
    pairs when a side is ``timestamped``, else from ``timestamp_fn``.

    Exactly-once bookkeeping lives in ``snapshot_state``: phase, both
    replay offsets and the skip/emit counts are part of the barrier cut,
    so recovery rewinds the correct side of the seam and the gauges stay
    exact across restarts.
    """

    def __init__(self, history_factory: Callable[[], Iterable[Any]],
                 stream_factory: Callable[[], Iterable[Any]], *,
                 cutover: Optional[int] = None,
                 timestamp_fn: Optional[Callable[[Any], int]] = None,
                 history_timestamped: bool = False,
                 stream_timestamped: bool = False,
                 history_burst: int = 8,
                 name: str = "hybrid-source") -> None:
        super().__init__()
        if history_burst < 1:
            raise ValueError("history_burst must be >= 1; got %d"
                             % history_burst)
        if (cutover is not None and timestamp_fn is None
                and not (history_timestamped and stream_timestamped)):
            raise ValueError(
                "a watermark-precise cutover needs event time on both "
                "sides: pass timestamp_fn=..., or use timestamped sources")
        self.name = name
        self._factories = {"history": history_factory,
                           "stream": stream_factory}
        self._timestamped = {"history": history_timestamped,
                             "stream": stream_timestamped}
        self._cutover = cutover
        self._timestamp_fn = timestamp_fn
        self._history_burst = history_burst
        self._phase = "history"
        self._history_emitted = 0
        self._stream_emitted = 0
        self._history_skipped = 0
        self._stream_skipped = 0
        #: Re-emit the seam watermark lazily after a stream-phase restore
        #: (downstream watermark progress was reset with the channels).
        self._cutover_pending = False
        #: Elevated while draining the bounded prefix, reset to 1 at
        #: the seam so live records flow at stream cadence.
        self.source_burst_factor = history_burst
        #: Wired by the task (watermark-emitting chain-operator protocol,
        #: shared with ``TimestampsAndWatermarksOperator``).
        self.emit_watermark_fn: Optional[Callable[[int], None]] = None

    # -- lifecycle ------------------------------------------------------

    def open(self, ctx: OperatorContext) -> None:
        super().open(ctx)
        #: One replay cursor per side, dealt by the same stride as
        #: ``IteratorSource``; each rewinds independently after recovery.
        self._cursors = {
            side: ReplayCursor(factory, ctx.subtask_index, ctx.parallelism)
            for side, factory in self._factories.items()}
        metrics = ctx.metrics
        self._meters = {
            name: metrics.counter("hybrid_" + name)
            for name in ("history_emitted", "stream_emitted",
                         "history_skipped", "stream_skipped")}
        self._m_replayed = metrics.counter("hybrid_replayed_records")
        #: Both cursors' offsets summed: the subtask's metrics outlive
        #: this operator, so a restore reads how far the failed attempt
        #: read.
        self._m_read = metrics.gauge("hybrid_read_offset")
        self._m_cutover = metrics.gauge("hybrid_cutover_watermark")

    # -- emission -------------------------------------------------------

    def _survivors(self, chunk: List[Any], side: str) -> List[Any]:
        """The cutover rule: history keeps event times ``<= T``, the
        stream keeps ``> T``; an element without event time stays."""
        cutover = self._cutover
        if cutover is None:
            return chunk
        timestamp_fn = self._timestamp_fn
        timestamped = self._timestamped[side]
        history = side == "history"
        kept = []
        for item in chunk:
            event_ts = item[1] if timestamped else None
            if event_ts is None and timestamp_fn is not None:
                event_ts = timestamp_fn(item[0] if timestamped else item)
            if event_ts is None or (event_ts <= cutover) == history:
                kept.append(item)
        return kept

    def _emit_seam_watermark(self) -> None:
        self._cutover_pending = False
        if self._cutover is None:
            return
        self._m_cutover.set(self._cutover)
        if self.emit_watermark_fn is not None:
            self.emit_watermark_fn(self._cutover)

    def emit_batch(self, source_ctx: SourceContext, max_records: int) -> bool:
        if self._cutover_pending:
            self._emit_seam_watermark()
        owed = max_records
        while owed:
            side = self._phase
            cursor = self._cursors[side]
            # Take only what the step still owes, so the step consumes
            # exactly the prefix that ends at its last emitted record.
            chunk = cursor.take(owed)
            self._m_read.inc(len(chunk))
            run = self._survivors(chunk, side)
            skipped = len(chunk) - len(run)
            if side == "history":
                self._history_skipped += skipped
                self._history_emitted += len(run)
            else:
                self._stream_skipped += skipped
                self._stream_emitted += len(run)
            self._meters[side + "_skipped"].inc(skipped)
            self._meters[side + "_emitted"].inc(len(run))
            owed -= len(run)
            self._emit_run(source_ctx, run, self._timestamped[side])
            if cursor.exhausted:
                if side == "stream":
                    return False
                # The seam: every history record has left; the stream
                # side takes over inside the same step.
                self._phase = "stream"
                self.source_burst_factor = 1
                self._emit_seam_watermark()
        return True

    # -- checkpoints ----------------------------------------------------

    def _counts(self) -> Dict[str, int]:
        return {"history_emitted": self._history_emitted,
                "history_skipped": self._history_skipped,
                "stream_emitted": self._stream_emitted,
                "stream_skipped": self._stream_skipped}

    def snapshot_state(self) -> Any:
        return {"phase": self._phase,
                "history_offset": self._cursors["history"].offset,
                "stream_offset": self._cursors["stream"].offset,
                **self._counts()}

    def restore_state(self, state: Any) -> None:
        history, stream = self._cursors["history"], self._cursors["stream"]
        restored = state["history_offset"] + state["stream_offset"]
        replayed = self._m_read.value - restored
        if replayed > 0:
            # A restart: everything the failed attempt read past the
            # restored offsets will be re-read and re-emitted.
            self._m_replayed.inc(replayed)
        self._m_read.set(restored)
        self._phase = state["phase"]
        self._history_emitted = state["history_emitted"]
        self._stream_emitted = state["stream_emitted"]
        self._history_skipped = state["history_skipped"]
        self._stream_skipped = state["stream_skipped"]
        if self._phase == "history":
            history.rewind(state["history_offset"])
            stream.set_position(0)      # left unread until the seam
            self.source_burst_factor = self._history_burst
            self._cutover_pending = False
        else:
            # Restoring past the seam never re-reads history.
            history.set_position(state["history_offset"], exhausted=True)
            stream.rewind(state["stream_offset"])
            self.source_burst_factor = 1
            self._cutover_pending = self._cutover is not None

    # -- observability --------------------------------------------------

    def cutover_report(self) -> Dict[str, Any]:
        """The gauges ``Engine.job_report()`` folds into its ``cutover``
        section (zeros before the deployment opened this operator)."""
        replayed = self._m_replayed.value if self.ctx is not None else 0
        return {"phase": self._phase, "cutover": self._cutover,
                **self._counts(), "replayed_records": replayed}
