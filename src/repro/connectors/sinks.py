"""Exactly-once sinks: persisting results from either kind of program.

The file sinks (:class:`TransactionalTextFileSink`,
:class:`TransactionalJsonlFileSink`, :class:`TransactionalCsvFileSink`)
and the list ``collect()`` fills (:class:`CollectSink` over a
:class:`ListSink`) run one two-phase-commit protocol.  Records buffer
inside a transaction scoped to the checkpoint interval; at the barrier
cut the transaction is *pre-committed* -- sealed in memory, its records
carried by the operator snapshot; once the coordinator confirms the
checkpoint completed, the transaction *commits*: its records are
appended to the target.  The snapshot records the target's committed
length, so a restore truncates the target to that length and re-appends
the transactions the checkpoint holds pending.
Truncate-then-append is idempotent: a restart on either backend, a
savepoint and time travel to an older checkpoint all leave each record
in the target exactly once.

A process killed inside an append can leave part of one *committed*
transaction at the end of a file until the next restore truncates it; a
cancelled job leaves a clean committed prefix.  Without checkpoints the
whole output is one transaction, appended at end of input -- on either
backend, since the sink runs as an operator inside whichever process
owns it.
"""

from __future__ import annotations

import csv
import io
import json
import os
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.runtime.elements import Record
from repro.runtime.operators import OperatorContext, SinkOperator


# -- exactly-once (two-phase-commit) sinks ----------------------------------


class TransactionalSink:
    """The two-phase-commit protocol (see the module docstring) over the
    file at ``path`` or a subclass's target, driven by the engine through
    :class:`TransactionalSinkOperator`; transaction ids are checkpoint
    ids."""

    #: What the target's length counts.
    _unit = "bytes"

    def __init__(self, path: str) -> None:
        self.path = path
        self._buffer: List[Any] = []
        self._pending: Dict[int, List[Any]] = {}
        #: The target's committed length (a file's bytes, header
        #: included; a list's rows), advanced once a write is done.
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
        """Fresh attempt from offset zero (a deployment with no state to
        restore): the target starts over with just its header."""
        self._buffer = []
        self._pending = {}
        self.records_committed = 0
        self.transactions_committed = 0
        self._write(0, self._header_lines())

    def write(self, value: Any) -> None:
        self._buffer.append(self._format(value))

    def pre_commit(self, txn_id: int) -> None:
        """Phase one, at the barrier cut: seal the open buffer into
        pending transaction ``txn_id``.  Nothing touches the target; the
        checkpoint snapshot carries the records."""
        self._pending[txn_id] = self._buffer
        self._buffer = []

    def commit_through(self, txn_id: int) -> None:
        """Phase two: the checkpoint is durable, append every pending
        transaction up to and including ``txn_id``, in id order, in one
        append.  Idempotent -- already-committed ids are gone from the
        pending set, so a replayed notification appends nothing."""
        due = sorted(t for t in self._pending if t <= txn_id)
        if not due:
            return
        records = [record for txn in due for record in self._pending.pop(txn)]
        self._write(self._length, records)
        self.records_committed += len(records)
        self.transactions_committed += len(due)

    def abort(self, txn_id: int) -> None:
        if self._pending.pop(txn_id, None) is not None:
            self.transactions_aborted += 1

    def snapshot(self) -> Dict[str, Any]:
        """The checkpoint's record of this sink: the target's committed
        length and counts, and the pending transactions' records by id
        -- a view of the live transactions, which the task serialises
        at the barrier before the sink writes again."""
        return {"length": self._length,
                "records": self.records_committed,
                "transactions": self.transactions_committed,
                "pending": self._pending}

    def recover(self, state: Dict[str, Any]) -> None:
        """Put the target back to checkpoint ``state``: truncate it to
        the committed length, drop every transaction and buffer the
        checkpoint does not name (those records lie beyond the replay
        point), and commit the ones it does -- it is durable.  Raises
        when the target is shorter than that length: the committed
        output the checkpoint continues is gone."""
        length = state["length"]
        size = self._size()
        if size < length:
            raise RuntimeError(
                "cannot restore exactly-once sink %s: the checkpoint "
                "committed %d %s but the target holds %d"
                % (self.path, length, self._unit, size))
        for txn in sorted(self._pending):
            if txn not in state["pending"]:
                self.abort(txn)
        self._buffer = []
        self._pending = state["pending"]
        self._write(length, [])
        self.records_committed = state["records"]
        self.transactions_committed = state["transactions"]
        if self._pending:
            self.commit_through(max(self._pending))

    def flush_final(self) -> None:
        """End of stream: everything produced is final, commit pending
        transactions and the tail buffer, as one more."""
        if self._buffer:
            self.pre_commit(max(self._pending, default=0) + 1)
        if self._pending:
            self.commit_through(max(self._pending))

    # -- the target (a file unless overridden) ---------------------------

    def _write(self, offset: int, records: List[Any]) -> None:
        """Truncate the target to ``offset``, append ``records``, fsync."""
        data = "".join(record + "\n" for record in records).encode("utf-8")
        with open(self.path, "ab") as handle:
            handle.truncate(offset)
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        self._length = offset + len(data)

    def _size(self) -> int:
        return os.path.getsize(self.path) if os.path.exists(self.path) else 0

    def __repr__(self) -> str:
        return ("%s(%r, committed=%d txns/%d records, pending=%d)"
                % (type(self).__name__, self.path,
                   self.transactions_committed, self.records_committed,
                   len(self._pending)))


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
        #: Set by the engine when the job is deployed with state, which
        #: ``open()``'s truncation would destroy: ``open`` then touches
        #: nothing and ``restore_state`` puts the target back.
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


# -- collect(): the same protocol over a list --------------------------------


class ListSink(TransactionalSink):
    """The target of ``collect()``: a list written only by commits and
    restores.  On a worker process the list lives in the parent, and
    ``forward(offset, rows)`` ships each write there; :meth:`_size` then
    reads the worker's fork-time copy, which the parent held at restore."""

    _unit = "rows"

    def __init__(self, rows: List[Any]) -> None:
        # Unique per result: a snapshot counts only the result it names.
        super().__init__("memory:%s" % os.urandom(16).hex())
        self.rows = rows
        self.forward: Optional[Callable[[int, List[Any]], None]] = None

    def snapshot(self) -> Dict[str, Any]:
        return dict(super().snapshot(), target=self.path)

    def recover(self, state: Dict[str, Any]) -> None:
        if state.get("target") == self.path:
            super().recover(state)
        else:  # another result's savepoint: its rows stay with its job
            self.open()

    def _write(self, offset: int, rows: List[Any]) -> None:
        if self.forward is not None:
            self.forward(offset, rows)
        else:
            del self.rows[offset:]
            self.rows.extend(rows)
        self._length = offset + len(rows)

    def _size(self) -> int:
        return len(self.rows)


class CollectSink(TransactionalSinkOperator):
    """The operator of ``collect()``: every value (or ``(value,
    timestamp)`` pair) joins the open transaction of ``sink``."""

    def __init__(self, sink: ListSink, with_timestamps: bool = False,
                 name: str = "collect-sink") -> None:
        super().__init__(sink, name)
        self._with_timestamps = with_timestamps

    def process(self, record: Record) -> None:
        self._sink._buffer.append((record.value, record.timestamp)
                                  if self._with_timestamps else record.value)

    def process_batch(self, records: List[Record]) -> None:
        # Terminal and stateless: one bulk extend instead of n appends.
        self._sink._buffer.extend(
            [(r.value, r.timestamp) for r in records]
            if self._with_timestamps else [r.value for r in records])
