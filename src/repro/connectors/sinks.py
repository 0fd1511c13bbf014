"""File sinks: persisting results from either kind of program.

The sinks (:class:`TransactionalTextFileSink`,
:class:`TransactionalJsonlFileSink`, :class:`TransactionalCsvFileSink`)
implement the two-phase-commit protocol of exactly-once sinks: records
buffer inside a transaction scoped to the checkpoint interval; at the
barrier cut the transaction is *pre-committed* (its content persisted to
a ``.pending-<txn>`` side file and recorded in the operator snapshot);
once the coordinator confirms the checkpoint completed, the transaction
*commits* into the target file.  On recovery, transactions recorded
pending in the restored snapshot are committed (their checkpoint is
durable) and every other in-flight transaction is aborted -- its records
sit before the replay point and will be produced again.  The visible
file therefore always holds each record exactly once, no matter where
the job crashed.  Every publish is an atomic temp-file-and-rename, so
readers see the old file or the new file, never a torn half-file.
Without checkpoints the whole output is one transaction, published at
end of input -- on either backend, since the sink runs as an operator
inside whichever process owns it.
"""

from __future__ import annotations

import csv
import glob
import io
import json
import os
from typing import Any, Callable, Dict, List, Sequence

from repro.runtime.elements import Record
from repro.runtime.operators import OperatorContext, SinkOperator


def _replace_atomically(path: str, write_fn: Callable[[Any], None]) -> None:
    """Write via a sibling temp file and ``os.replace`` so the target is
    either the complete old content or the complete new content."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        write_fn(handle)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


# -- exactly-once (two-phase-commit) sinks ----------------------------------


class TransactionalSink:
    """Base of exactly-once file sinks, driven by the engine through
    :class:`TransactionalSinkOperator`.

    Transaction ids are checkpoint ids.  Lifecycle per transaction:
    records accumulate in the open buffer; ``pre_commit(txn)`` seals the
    buffer into a pending transaction (persisted to a side file) at the
    barrier cut; ``commit_through(txn)`` publishes every pending
    transaction up to ``txn`` into the target file once the coordinator
    confirms durability.  ``recover(pending)`` reconciles after a
    restore: commit what the restored checkpoint recorded as pending,
    abort everything else.

    The visible target file is rewritten atomically on each commit, so
    at any instant it contains exactly the records of committed
    transactions -- never a torn or uncommitted suffix.
    """

    #: Shared across rebuilds of the job (the sink object outlives task
    #: attempts), so parallelism must stay 1 -- enforced by ``add_sink``.
    exactly_once = True

    def __init__(self, path: str) -> None:
        self.path = path
        self._buffer: List[str] = []
        self._pending: Dict[int, List[str]] = {}
        self._committed: List[str] = []
        #: Highest committed transaction id, mirrored in the meta
        #: sidecar so a respawned sink can reconcile a commit that
        #: crashed midway (see :meth:`resume`).
        self._committed_through = 0
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
        restart): discard every artifact of previous attempts."""
        self._buffer = []
        self._pending = {}
        self._committed = []
        self._committed_through = 0
        for stale in ([self.path, self.path + ".tmp", self._meta_path(),
                       self._meta_path() + ".tmp"]
                      + glob.glob(glob.escape(self.path) + ".pending-*")):
            if os.path.exists(stale):
                os.remove(stale)
        self._publish()

    def resume(self) -> None:
        """Reattach to the on-disk artifacts of a previous attempt.

        The multiprocess backend respawns workers on failure, so unlike
        an in-process restart the sink *object* does not survive -- its
        durable state does.  Committed records are reloaded from the
        target file and pre-committed transactions from their side
        files; :meth:`recover` then reconciles them against what the
        restored checkpoint recorded as pending, exactly as it would
        have against the live object's memory.

        The meta sidecar closes the two crash windows inside a commit:

        * died after meta was written but before the target was
          published -- the target holds fewer records than meta says, so
          the side files at or below ``committed_through`` are re-applied
          (their records would otherwise be lost);
        * died after publishing but before the side files were deleted
          -- those side files describe *already committed* transactions
          and are deleted here, never offered as pending (re-committing
          them would double every record in the window).
        """
        self._buffer = []
        self._committed = []
        if os.path.exists(self.path):
            with open(self.path, "r", encoding="utf-8") as handle:
                lines = [line.rstrip("\n") for line in handle]
            self._committed = lines[len(self._header_lines()):]
        sides: Dict[int, List[str]] = {}
        for side in glob.glob(glob.escape(self.path) + ".pending-*"):
            if side.endswith(".tmp"):
                # A pre-commit torn by the kill: never replace-committed,
                # so the restored checkpoint cannot name it as pending.
                os.remove(side)
                continue
            txn_id = int(side.rsplit("-", 1)[1])
            with open(side, "r", encoding="utf-8") as handle:
                sides[txn_id] = [line.rstrip("\n") for line in handle]
        meta = self._load_meta()
        self._committed_through = meta.get("committed_through", 0)
        committed_sides = sorted(txn for txn in sides
                                 if txn <= self._committed_through)
        if len(self._committed) < meta.get("records", 0):
            for txn in committed_sides:
                self._committed.extend(sides[txn])
            self._publish()
        for txn in committed_sides:
            self._remove_pending_file(txn)
            del sides[txn]
        self._pending = sides

    def write(self, value: Any) -> None:
        self._buffer.append(self._format(value))

    def pre_commit(self, txn_id: int) -> None:
        """Phase one, at the barrier cut: seal the open buffer into
        pending transaction ``txn_id`` and persist it sideways."""
        if txn_id <= self._committed_through:
            # Ids start over when a new job resumes from a savepoint.
            # ``recover`` has settled every transaction of the old
            # numbering by then, so the mark that tells ``resume`` which
            # side files are already published starts over with them.
            self._committed_through = 0
            self._write_meta()
        lines = self._buffer
        self._buffer = []
        self._pending[txn_id] = lines
        _replace_atomically(self._pending_path(txn_id), lambda handle:
                            handle.writelines(line + "\n" for line in lines))

    def commit_through(self, txn_id: int) -> None:
        """Phase two: the checkpoint is durable, publish every pending
        transaction up to and including ``txn_id``.  Idempotent --
        already-committed ids are skipped, which recovery relies on."""
        due = sorted(t for t in self._pending if t <= txn_id)
        if not due:
            return
        for txn in due:
            self._committed.extend(self._pending.pop(txn))
            self.transactions_committed += 1
        self._committed_through = max(self._committed_through, due[-1])
        # Commit ordering is load-bearing: meta first (intent + expected
        # record count), then the target, then the side files.  A crash
        # at any point between the three steps is reconciled by
        # ``resume`` without losing or doubling a record.
        self._write_meta()
        self._publish()
        for txn in due:
            self._remove_pending_file(txn)

    def abort(self, txn_id: int) -> None:
        if txn_id in self._pending:
            del self._pending[txn_id]
            self._remove_pending_file(txn_id)
            self.transactions_aborted += 1

    def pending_transactions(self) -> List[int]:
        """Pre-committed but not yet committed txn ids (snapshotted)."""
        return sorted(self._pending)

    def recover(self, pending_in_snapshot: List[int]) -> None:
        """Reconcile after a restore: the restored checkpoint *is*
        durable, so its recorded pending transactions commit; any other
        transaction (pre-committed after the cut, or the open buffer) is
        discarded -- those records lie beyond the replay point."""
        durable = set(pending_in_snapshot)
        for txn in sorted(self._pending):
            if txn not in durable:
                self.abort(txn)
        self._buffer = []
        if durable:
            self.commit_through(max(durable))

    def flush_final(self) -> None:
        """End of stream: everything produced is final, commit pending
        transactions and the tail buffer."""
        if self._pending:
            self.commit_through(max(self._pending))
        if self._buffer:
            self._committed.extend(self._buffer)
            self._buffer = []
            self._write_meta()
            self._publish()

    # -- inspection ------------------------------------------------------

    @property
    def records_committed(self) -> int:
        return len(self._committed)

    # -- internals -------------------------------------------------------

    def _pending_path(self, txn_id: int) -> str:
        return "%s.pending-%d" % (self.path, txn_id)

    def _meta_path(self) -> str:
        return self.path + ".txn-meta.json"

    def _write_meta(self) -> None:
        _replace_atomically(self._meta_path(), lambda handle: json.dump(
            {"committed_through": self._committed_through,
             "records": len(self._committed)}, handle))

    def _load_meta(self) -> Dict[str, int]:
        try:
            with open(self._meta_path(), "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return {}

    def _remove_pending_file(self, txn_id: int) -> None:
        pending = self._pending_path(txn_id)
        if os.path.exists(pending):
            os.remove(pending)

    def _publish(self) -> None:
        lines = self._header_lines() + self._committed
        _replace_atomically(self.path, lambda handle:
                            handle.writelines(line + "\n" for line in lines))

    def __repr__(self) -> str:
        return ("%s(%r, committed=%d txns/%d records, pending=%d)"
                % (type(self).__name__, self.path,
                   self.transactions_committed, len(self._committed),
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
        #: where ``open()``'s wipe would destroy the committed output
        #: that state continues; ``resume()`` reloads it from disk
        #: instead, and ``restore_state`` then reconciles via
        #: ``recover()``.
        self.resume_on_open = False

    def open(self, ctx: OperatorContext) -> None:
        super().open(ctx)
        if self.resume_on_open:
            self._sink.resume()
        else:
            self._sink.open()

    def process(self, record: Record) -> None:
        self._sink.write(record.value)

    def on_checkpoint(self, checkpoint_id: int) -> None:
        self._sink.pre_commit(checkpoint_id)

    def snapshot_state(self) -> Any:
        return {"pending": self._sink.pending_transactions()}

    def restore_state(self, state: Any) -> None:
        self._sink.recover(state.get("pending", []))

    def notify_checkpoint_complete(self, checkpoint_id: int) -> None:
        self._sink.commit_through(checkpoint_id)

    def finish(self) -> None:
        self._sink.flush_final()
