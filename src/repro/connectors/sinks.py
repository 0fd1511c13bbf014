"""File sinks: persisting results from either kind of program.

The sinks (:class:`TransactionalTextFileSink`,
:class:`TransactionalJsonlFileSink`, :class:`TransactionalCsvFileSink`)
implement the two-phase-commit protocol of exactly-once sinks, and their
target is the only file they keep.  Records buffer inside a transaction
scoped to the checkpoint interval; at the barrier cut the transaction is
*pre-committed* -- sealed in memory, its lines carried by the operator
snapshot; once the coordinator confirms the checkpoint completed, the
transaction *commits*: its lines are appended to the target and fsynced.
The snapshot also records the target's committed byte length, so a
restore truncates the file to that length and re-appends the
transactions the checkpoint holds pending.  Truncate-then-append is
idempotent: in-place recovery, a respawned worker, a savepoint and time
travel to an older checkpoint all leave each record in the file exactly
once, however often they run over the same checkpoint.

A process killed inside an append can leave part of one *committed*
transaction at the end of the target until the next restore truncates
it; a cancelled job leaves a clean committed prefix.  Without
checkpoints the whole output is one transaction, appended at end of
input -- on either backend, since the sink runs as an operator inside
whichever process owns it.
"""

from __future__ import annotations

import csv
import io
import json
import os
from typing import Any, Callable, Dict, List, Sequence

from repro.runtime.elements import Record
from repro.runtime.operators import OperatorContext, SinkOperator


# -- exactly-once (two-phase-commit) sinks ----------------------------------


class TransactionalSink:
    """Base of exactly-once file sinks, driven by the engine through
    :class:`TransactionalSinkOperator`.

    Transaction ids are checkpoint ids.  Lifecycle per transaction:
    records accumulate in the open buffer; ``pre_commit(txn)`` seals the
    buffer into a pending transaction, in memory, at the barrier cut;
    ``commit_through(txn)`` appends every pending transaction up to
    ``txn`` to the target once the coordinator confirms durability.
    :meth:`snapshot` is what the checkpoint keeps and :meth:`recover`
    puts the target back to it.
    """

    #: Shared across rebuilds of the job (the sink object outlives task
    #: attempts), so parallelism must stay 1 -- enforced by ``add_sink``.
    exactly_once = True

    def __init__(self, path: str) -> None:
        self.path = path
        self._buffer: List[str] = []
        self._pending: Dict[int, List[str]] = {}
        #: The target's committed byte length, header included; it
        #: advances only once an append is fsynced.
        self._length = 0
        self.records_committed = 0
        self.transactions_committed = 0
        self.transactions_aborted = 0

    # -- formatting hooks (overridden per format) ------------------------

    def _format(self, value: Any) -> str:
        return str(value)

    def _header_lines(self) -> List[str]:
        return []

    # -- lifecycle -------------------------------------------------------

    def open(self) -> None:
        """Fresh attempt from offset zero (job start or from-scratch
        restart): the target starts over with just its header."""
        self._buffer = []
        self._pending = {}
        self.records_committed = 0
        self.transactions_committed = 0
        self._truncate(0)
        self._append(_encode(self._header_lines()))

    def write(self, value: Any) -> None:
        self._buffer.append(self._format(value))

    def pre_commit(self, txn_id: int) -> None:
        """Phase one, at the barrier cut: seal the open buffer into
        pending transaction ``txn_id``.  Nothing touches the disk; the
        checkpoint snapshot carries the lines."""
        self._pending[txn_id] = self._buffer
        self._buffer = []

    def commit_through(self, txn_id: int) -> None:
        """Phase two: the checkpoint is durable, append every pending
        transaction up to and including ``txn_id``, in id order, with one
        fsync.  Idempotent -- already-committed ids are gone from the
        pending set, so a replayed notification appends nothing."""
        due = sorted(t for t in self._pending if t <= txn_id)
        if not due:
            return
        lines = [line for txn in due for line in self._pending.pop(txn)]
        self._append(_encode(lines))
        self.records_committed += len(lines)
        self.transactions_committed += len(due)

    def abort(self, txn_id: int) -> None:
        if self._pending.pop(txn_id, None) is not None:
            self.transactions_aborted += 1

    def snapshot(self) -> Dict[str, Any]:
        """The checkpoint's record of this sink: the committed length
        and counts, and the pending transactions' lines by id (copied:
        the cooperative store keeps operator state as it is given)."""
        return {"length": self._length,
                "records": self.records_committed,
                "transactions": self.transactions_committed,
                "pending": {txn: list(lines)
                            for txn, lines in self._pending.items()}}

    def recover(self, state: Dict[str, Any]) -> None:
        """Put the target back to checkpoint ``state``: truncate it to
        the committed length, drop every transaction and buffer the
        checkpoint does not name (those records lie beyond the replay
        point), and commit the ones it does -- it is durable.

        Raises when the target is shorter than the checkpoint's length:
        the committed output the checkpoint continues is gone, and
        appending to what is left would publish a file with a hole."""
        length = state["length"]
        size = os.path.getsize(self.path) if os.path.exists(self.path) else 0
        if size < length:
            raise RuntimeError(
                "cannot restore exactly-once sink %s: the checkpoint "
                "committed %d bytes but the file holds %d"
                % (self.path, length, size))
        for txn in sorted(self._pending):
            if txn not in state["pending"]:
                self.abort(txn)
        self._buffer = []
        self._pending = dict(state["pending"])
        self._truncate(length)
        self.records_committed = state["records"]
        self.transactions_committed = state["transactions"]
        if self._pending:
            self.commit_through(max(self._pending))

    def flush_final(self) -> None:
        """End of stream: everything produced is final, commit pending
        transactions and the tail buffer."""
        if self._pending:
            self.commit_through(max(self._pending))
        if self._buffer:
            self._append(_encode(self._buffer))
            self.records_committed += len(self._buffer)
            self._buffer = []

    # -- internals -------------------------------------------------------

    def _append(self, data: bytes) -> None:
        """Append committed bytes to the target, then fsync."""
        with open(self.path, "ab") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        self._length += len(data)

    def _truncate(self, length: int) -> None:
        with open(self.path, "ab") as handle:
            handle.truncate(length)
        self._length = length

    def __repr__(self) -> str:
        return ("%s(%r, committed=%d txns/%d records, pending=%d)"
                % (type(self).__name__, self.path,
                   self.transactions_committed, self.records_committed,
                   len(self._pending)))


def _encode(lines: List[str]) -> bytes:
    return "".join(line + "\n" for line in lines).encode("utf-8")


class TransactionalTextFileSink(TransactionalSink):
    """Exactly-once text lines."""

    def __init__(self, path: str,
                 formatter: Callable[[Any], str] = str) -> None:
        super().__init__(path)
        self.formatter = formatter

    def _format(self, value: Any) -> str:
        return self.formatter(value)


class TransactionalJsonlFileSink(TransactionalSink):
    """Exactly-once JSON documents, one per line."""

    def _format(self, value: Any) -> str:
        return json.dumps(value, default=repr, sort_keys=True)


class TransactionalCsvFileSink(TransactionalSink):
    """Exactly-once CSV with a fixed header; records must be sequences."""

    def __init__(self, path: str, header: Sequence[str]) -> None:
        super().__init__(path)
        self.header = list(header)

    def _csv_line(self, row: Sequence[Any]) -> str:
        out = io.StringIO()
        csv.writer(out, lineterminator="").writerow(row)
        return out.getvalue()

    def _format(self, value: Any) -> str:
        if len(value) != len(self.header):
            raise ValueError("row width %d != header width %d"
                             % (len(value), len(self.header)))
        return self._csv_line(value)

    def _header_lines(self) -> List[str]:
        return [self._csv_line(self.header)]


class TransactionalSinkOperator(SinkOperator):
    """The runtime face of a :class:`TransactionalSink`: translates the
    engine's checkpoint lifecycle into the sink's 2PC protocol.

    * barrier cut (``on_checkpoint``)            -> ``pre_commit``
    * operator snapshot (``snapshot_state``)     -> ``snapshot``
    * checkpoint durable (``notify_..._complete``) -> ``commit_through``
    * restore after failure (``restore_state``)  -> ``recover``
    * end of bounded input (``finish``)          -> ``flush_final``
    """

    def __init__(self, sink: TransactionalSink,
                 name: str = "transactional-sink") -> None:
        super().__init__()
        self.name = name
        self._sink = sink
        #: Set by the engine when the job is deployed with state (a
        #: savepoint, or the checkpoint a respawned worker restores),
        #: where ``open()``'s truncation would destroy the committed
        #: output that state continues: ``open`` then touches nothing
        #: and ``restore_state`` puts the file back via ``recover()``.
        self.resume_on_open = False

    def open(self, ctx: OperatorContext) -> None:
        super().open(ctx)
        if not self.resume_on_open:
            self._sink.open()

    def process(self, record: Record) -> None:
        self._sink.write(record.value)

    def on_checkpoint(self, checkpoint_id: int) -> None:
        self._sink.pre_commit(checkpoint_id)

    def snapshot_state(self) -> Any:
        return self._sink.snapshot()

    def restore_state(self, state: Any) -> None:
        self._sink.recover(state)

    def notify_checkpoint_complete(self, checkpoint_id: int) -> None:
        self._sink.commit_through(checkpoint_id)

    def finish(self) -> None:
        self._sink.flush_final()
