"""Watermark-driven event-time reordering.

Cutty's slicing (like any tuple-at-a-time slicing) assumes records
arrive in event-time order.  After a shuffle from parallel sources that
assumption breaks, so this operator restores it: records are buffered in
a min-heap and released in timestamp order whenever the watermark
advances -- by the watermark contract, no record older than the
watermark can still arrive, so the release order is the true event-time
order (stable for equal timestamps, by arrival).

The price is the watermark's worth of latency and buffer space, which is
exactly the trade Flink pipelines make; E11's reorder ablation measures
it.
"""

from __future__ import annotations

import heapq
from typing import Any, List, Tuple

from repro.runtime.elements import Record
from repro.runtime.operators import Operator, OperatorContext


class WatermarkReorderOperator(Operator):
    """Buffers records; emits them in event-time order on watermarks."""

    def __init__(self, name: str = "reorder") -> None:
        super().__init__()
        self.name = name
        self._heap: List[Tuple[int, int, Any, Any]] = []
        self._sequence = 0

    def open(self, ctx: OperatorContext) -> None:
        super().open(ctx)
        self._buffered_gauge = ctx.metrics.gauge("reorder_buffered")

    def process(self, record: Record) -> None:
        if record.timestamp is None:
            raise ValueError(
                "reordering requires timestamped records; "
                "use assign_timestamps_and_watermarks() upstream")
        heapq.heappush(self._heap, (record.timestamp, self._sequence,
                                    record.value, record.key))
        self._sequence += 1

    def on_watermark(self, timestamp: int) -> None:
        # The heap only grows between two releases, so its size is read
        # where it can peak (here, before the release) and where it falls.
        heap = self._heap
        self._buffered_gauge.set(len(heap))
        emit_record = self.ctx.emit_record
        while heap and heap[0][0] <= timestamp:
            ts, _, value, key = heapq.heappop(heap)
            emit_record(Record(value, ts, key))
        self._buffered_gauge.set(len(heap))

    def finish(self) -> None:
        # The task advances the watermark to MAX before finish(), so the
        # heap is normally empty here; drain defensively anyway.
        self._buffered_gauge.set(len(self._heap))
        while self._heap:
            ts, _, value, key = heapq.heappop(self._heap)
            self.ctx.emit_record(Record(value, ts, key))
        self._buffered_gauge.set(0)

    def snapshot_state(self) -> Any:
        self._buffered_gauge.set(len(self._heap))
        return {"heap": self._heap, "sequence": self._sequence}

    def restore_state(self, state: Any) -> None:
        self._heap = state["heap"]
        self._sequence = state["sequence"]
