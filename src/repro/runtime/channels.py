"""In-memory channels: the physical links between subtasks.

A channel is a FIFO of :class:`~repro.runtime.elements.StreamElement`
with a *soft* capacity.  The scheduler refuses to run a task whose output
channels are at or over capacity, which models credit-based flow control
(backpressure) without the deadlock hazards of hard-blocking mid-element:
a task may overshoot capacity by the fan-out of a single input element,
then is paused until downstream drains.

Channels also implement the *blocking* needed for aligned checkpoint
barriers: once a barrier for checkpoint *n* arrives on a channel, the
receiving task blocks that channel until barriers arrived on all of its
inputs, preserving the exactly-once cut of asynchronous barrier
snapshotting.

Occupancy accounting is *record-denominated*: a
:class:`~repro.runtime.elements.RecordBatch` of *n* records weighs *n*
against capacity, so backpressure thresholds mean the same thing in
batched and scalar execution.  The occupancy is maintained as a plain
integer on push/poll -- the scheduler's runnable scan
(``Task.has_output_capacity``) compares ``size`` with ``capacity`` once
per channel per round, and must not pay a recount per element.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.runtime.elements import StreamElement


def element_weight(element: StreamElement) -> int:
    """Records carried by one channel element; control elements, and
    each watermark mark inside a batch, weigh 1.

    Uses ``len(batch)`` rather than ``len(batch.records)`` so weighing a
    columnar batch never materialises its row view.
    """
    if element.is_batch:
        return len(element) + len(element.marks)
    return 1


class Channel:
    """A FIFO between one upstream and one downstream subtask."""

    __slots__ = ("name", "capacity", "_queue", "size", "pushed", "polled",
                 "cleared", "blocked", "finished")

    def __init__(self, name: str, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("channel capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self._queue: Deque[StreamElement] = deque()
        #: Cached record-denominated occupancy, updated on push/poll.
        self.size = 0
        self.pushed = 0          # lifetime counters, reported as metrics
        self.polled = 0
        #: Records dropped without being polled (chaos-injected
        #: losses).  The lifetime invariant is ``pushed == polled +
        #: cleared + size``; throughput/occupancy figures in
        #: ``job_report()`` rely on it.
        self.cleared = 0
        self.blocked = False     # barrier alignment: reads suspended
        self.finished = False    # EndOfStream consumed

    def push(self, element: StreamElement) -> None:
        self._queue.append(element)
        weight = element_weight(element)
        self.size += weight
        self.pushed += weight

    def poll(self) -> Optional[StreamElement]:
        """Dequeue the next element, or ``None`` when empty/blocked."""
        if self.blocked or not self._queue:
            return None
        element = self._queue.popleft()
        weight = element_weight(element)
        self.size -= weight
        self.polled += weight
        return element

    def requeue_front(self, element: StreamElement) -> None:
        """Put the unprocessed remainder of a split batch back at the
        head of the queue.

        Budget-exact stepping: a task that polls a batch bigger than its
        remaining step budget processes only the records it has budget
        for and returns the rest here, so ``elements_per_step`` throttles
        identically in batched and scalar mode (backpressure dynamics --
        and everything observing them -- stay comparable).  Reverses the
        poll-side accounting so ``pushed``/``polled`` still balance.
        """
        weight = element_weight(element)
        self._queue.appendleft(element)
        self.size += weight
        self.polled -= weight

    @property
    def is_empty(self) -> bool:
        return not self._queue

    @property
    def readable(self) -> bool:
        return bool(self._queue) and not self.blocked and not self.finished

    # -- chaos injection hooks (repro.runtime.faults) ----------------------

    @property
    def has_buffered_record(self) -> bool:
        """Whether at least one *data* record (not a barrier, watermark or
        EOS) is buffered -- the only elements chaos may drop/duplicate.
        Records inside batches count."""
        return any(element.is_record
                   or (element.is_batch and element.records)
                   for element in self._queue)

    def _demote_columnar(self, index: int) -> StreamElement:
        """Replace a columnar batch at ``index`` with its row-batch twin
        (marks included) so chaos mutations edit the authoritative record
        list rather than a cached materialisation that would desync from
        the columns."""
        element = self._queue[index]
        if element.is_columnar:
            from repro.runtime.elements import RecordBatch
            element = RecordBatch(list(element.records), element.marks)
            self._queue[index] = element
        return element

    @staticmethod
    def _shift_marks(batch: StreamElement, delta: int) -> None:
        """A record was removed from (``-1``) or repeated at (``+1``) the
        head of ``batch``: every mark behind that record moves with it."""
        if batch.marks:
            batch.marks = [(offset + delta if offset else 0, timestamp)
                           for offset, timestamp in batch.marks]

    def drop_one_record(self) -> bool:
        """Remove the oldest buffered data record (simulated network
        loss); control elements are never dropped, their loss would wedge
        alignment rather than exercise recovery.  For a batched channel
        the oldest record is carved out of its batch in place, and the
        batch's watermark marks stay where they were in the stream."""
        for index, element in enumerate(self._queue):
            if element.is_record:
                del self._queue[index]
                self.size -= 1
                self.cleared += 1
                return True
            if element.is_batch and element.records:
                element = self._demote_columnar(index)
                element.records.pop(0)
                self._shift_marks(element, -1)
                if not element.records and not element.marks:
                    del self._queue[index]
                self.size -= 1
                self.cleared += 1
                return True
        return False

    def duplicate_one_record(self) -> bool:
        """Repeat the oldest buffered data record in place (simulated
        network retransmission)."""
        for index, element in enumerate(self._queue):
            if element.is_record:
                self._queue.insert(index, element)
                self.size += 1
                self.pushed += 1
                return True
            if element.is_batch and element.records:
                element = self._demote_columnar(index)
                element.records.insert(0, element.records[0])
                self._shift_marks(element, 1)
                self.size += 1
                self.pushed += 1
                return True
        return False

    def __repr__(self) -> str:
        state = "blocked" if self.blocked else ("finished" if self.finished
                                                else "open")
        return "Channel(%s, size=%d, %s)" % (self.name, self.size, state)
