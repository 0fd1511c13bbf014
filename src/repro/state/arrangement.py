"""Shared arrangements: one maintained multiversioned index, many readers.

An :class:`Arrangement` is the indexed state behind a join or group-by,
maintained *once* by the engine and shared by every query that needs the
same (input, key) pair -- McSherry et al.'s *Shared Arrangements*
applied to this engine's Table layer, the relational sibling of Cutty's
shared window slices.

The mechanics:

* Rows are inserted under their key into an **open** (unsealed) version.
  Each watermark advance **seals** the open version, making it readable;
  the sealed-version history is the multiversion index.
* Queries attach an :class:`ArrangementHandle` (refcounted).  A handle
  reads a **snapshot**: ``read_at(ts)`` resolves the watermark to the
  version sealed at-or-before ``ts`` and sees exactly the rows of that
  version -- never a torn, half-sealed view.
* **Compaction** folds versions at-or-below the low watermark of every
  attached reader into the base, keeping the version count flat while
  readers advance.  Reading below ``compacted_through`` raises
  :class:`VersionCompactedError`; reading at or above it is always
  exact, because the base *is* the compacted prefix.
* ``snapshot()`` / ``restore()`` round-trip the whole shard through the
  engine's checkpoint path (including ``DurableCheckpointStore``), so a
  crash mid-compaction restores a consistent index.

Rows keep a global, monotonically increasing sequence number so flat
iteration (used by the arrangement-backed join) replays arrival order
exactly -- that is what makes shared plans byte-identical to
independently planned ones.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.runtime.elements import MAX_TIMESTAMP

Row = Dict[str, Any]
Key = Tuple[Any, ...]


class VersionCompactedError(LookupError):
    """A reader asked for a version already folded into the base."""


class ArrangementHandle:
    """A refcounted, snapshot-consistent reader of one arrangement shard.

    Handles track a *low watermark*: the highest version the reader has
    declared it will never read below again (``advance_to``).  The
    arrangement only compacts versions every attached handle has
    advanced past.
    """

    def __init__(self, arrangement: "Arrangement") -> None:
        self._arrangement = arrangement
        self.attached = True
        #: highest version this reader has released for compaction.
        self.low_watermark = arrangement.compacted_through

    def advance_to(self, timestamp: int) -> int:
        """Release every version sealed at-or-before ``timestamp`` for
        compaction; returns the new low-watermark version."""
        version = self._arrangement.version_for(timestamp)
        if version > self.low_watermark:
            self.low_watermark = version
        return self.low_watermark

    def read_at(self, timestamp: int) -> Dict[Key, List[Row]]:
        """Snapshot read: key -> rows visible at watermark ``timestamp``."""
        self._check_attached()
        return self._arrangement.read_version(
            self._arrangement.version_for(timestamp))

    def read_frontier(self) -> Dict[Key, List[Row]]:
        """Snapshot read at the latest sealed version."""
        self._check_attached()
        return self._arrangement.read_version(self._arrangement.sealed)

    def read_frontier_rows(self) -> List[Tuple[Key, Row]]:
        """Flat ``(key, row)`` pairs at the frontier, in arrival order."""
        self._check_attached()
        return self._arrangement.read_rows(self._arrangement.sealed)

    def detach(self) -> None:
        if self.attached:
            self.attached = False
            self._arrangement._detach(self)

    def _check_attached(self) -> None:
        if not self.attached:
            raise RuntimeError("handle is detached from arrangement %r"
                               % self._arrangement.name)


class Arrangement:
    """One shard of a keyed multiversioned index."""

    def __init__(self, name: str, key_columns: Tuple[str, ...],
                 shard_index: int = 0, compaction_interval: int = 8) -> None:
        if compaction_interval < 1:
            raise ValueError("compaction_interval must be >= 1")
        self.name = name
        self.key_columns = tuple(key_columns)
        self.shard_index = shard_index
        self.compaction_interval = compaction_interval
        self._handles: List[ArrangementHandle] = []
        self._reset_data()
        # Reader accounting survives _reset_data (attach/detach history).
        self.readers_total = 0
        self.readers_peak = 0

    def _reset_data(self) -> None:
        #: compacted prefix: key -> [(seq, row)] for versions <= compacted_through
        self._base: Dict[Key, List[Tuple[int, Row]]] = {}
        #: sealed deltas: version -> key -> [(seq, row)]
        self._deltas: Dict[int, Dict[Key, List[Tuple[int, Row]]]] = {}
        #: rows inserted since the last seal (version ``sealed + 1``)
        self._open: Dict[Key, List[Tuple[int, Row]]] = {}
        #: (watermark, version) marks, ascending in both components
        self._marks: List[Tuple[int, int]] = []
        self._seq = 0
        self.sealed = 0
        self.compacted_through = 0
        self.compactions = 0
        self.rows = 0
        self._bytes = 0
        self.bytes_peak = 0

    # ------------------------------------------------------------------
    # Write path (the engine's arrange operator)

    def insert(self, key: Key, row: Row) -> None:
        self._seq += 1
        self._open.setdefault(key, []).append((self._seq, row))
        self.rows += 1
        self._bytes += sys.getsizeof(row)
        if self._bytes > self.bytes_peak:
            self.bytes_peak = self._bytes

    def seal(self, watermark: int) -> None:
        """Close the open version at ``watermark``, making it readable."""
        if self._marks and watermark <= self._marks[-1][0]:
            return  # watermark did not advance: nothing new to expose
        if self._open:
            self.sealed += 1
            self._deltas[self.sealed] = self._open
            self._open = {}
        self._marks.append((watermark, self.sealed))

    def seal_final(self) -> None:
        """Seal everything at the end-of-stream frontier."""
        self.seal(MAX_TIMESTAMP)

    # ------------------------------------------------------------------
    # Read path

    def version_for(self, timestamp: int) -> int:
        """The version visible at watermark ``timestamp``: the highest
        mark at-or-before it (0 == before any sealed data)."""
        version = 0
        for mark_ts, mark_version in self._marks:
            if mark_ts > timestamp:
                break
            version = mark_version
        return version

    def read_version(self, version: int) -> Dict[Key, List[Row]]:
        """key -> rows (arrival order) visible at ``version``."""
        grouped: Dict[Key, List[Row]] = {}
        for key, entries in self._iter_entries(version):
            grouped.setdefault(key, []).extend(row for _, row in entries)
        return grouped

    def read_rows(self, version: int) -> List[Tuple[Key, Row]]:
        """Flat ``(key, row)`` pairs at ``version`` in arrival order."""
        flat: List[Tuple[int, Key, Row]] = []
        for key, entries in self._iter_entries(version):
            flat.extend((seq, key, row) for seq, row in entries)
        flat.sort(key=lambda item: item[0])
        return [(key, row) for _, key, row in flat]

    def _iter_entries(
            self, version: int
    ) -> Iterable[Tuple[Key, List[Tuple[int, Row]]]]:
        if version < self.compacted_through:
            raise VersionCompactedError(
                "version %d of arrangement %r was compacted (base covers "
                "through %d)" % (version, self.name, self.compacted_through))
        version = min(version, self.sealed)
        for key, entries in self._base.items():
            yield key, entries
        for delta_version in sorted(self._deltas):
            if delta_version > version:
                break
            for key, entries in self._deltas[delta_version].items():
                yield key, entries

    # ------------------------------------------------------------------
    # Reader lifecycle

    def attach(self) -> ArrangementHandle:
        handle = ArrangementHandle(self)
        self._handles.append(handle)
        self.readers_total += 1
        if len(self._handles) > self.readers_peak:
            self.readers_peak = len(self._handles)
        return handle

    def _detach(self, handle: ArrangementHandle) -> None:
        try:
            self._handles.remove(handle)
        except ValueError:
            pass

    @property
    def readers(self) -> int:
        return len(self._handles)

    def reader_low_watermark(self) -> int:
        """The lowest version any attached reader may still re-read."""
        if not self._handles:
            return self.sealed
        return min(handle.low_watermark for handle in self._handles)

    # ------------------------------------------------------------------
    # Compaction

    def compact(self, up_to: Optional[int] = None) -> int:
        """Fold sealed versions at-or-below ``min(up_to, readers' low
        watermark)`` into the base; returns the new ``compacted_through``."""
        limit = self.sealed if up_to is None else min(up_to, self.sealed)
        limit = min(limit, self.reader_low_watermark())
        if limit <= self.compacted_through:
            return self.compacted_through
        folded = False
        for version in sorted(self._deltas):
            if version > limit:
                break
            for key, entries in self._deltas.pop(version).items():
                self._base.setdefault(key, []).extend(entries)
            folded = True
        self.compacted_through = limit
        # Marks resolving below the compaction point are unreadable now
        # (version_for returns 0 there, and reads below the frontier
        # raise VersionCompactedError) -- drop them to bound the list.
        self._marks = [(ts, v) for ts, v in self._marks if v >= limit]
        if folded:
            self.compactions += 1
        return self.compacted_through

    # ------------------------------------------------------------------
    # Checkpoint / restore

    def snapshot(self) -> Dict[str, Any]:
        """A view of the live index, serialised by the task at the
        barrier before the shard changes again."""
        return {
            "base": self._base,
            "deltas": self._deltas,
            "open": self._open,
            "marks": self._marks,
            "seq": self._seq,
            "sealed": self.sealed,
            "compacted_through": self.compacted_through,
            "compactions": self.compactions,
            "rows": self.rows,
            "bytes": self._bytes,
            "bytes_peak": self.bytes_peak,
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Take ownership of ``state``, a decoded :meth:`snapshot`."""
        self._base = state["base"]
        self._deltas = state["deltas"]
        self._open = state["open"]
        self._marks = state["marks"]
        self._seq = state["seq"]
        self.sealed = state["sealed"]
        self.compacted_through = state["compacted_through"]
        self.compactions = state["compactions"]
        self.rows = state["rows"]
        self._bytes = state["bytes"]
        self.bytes_peak = state["bytes_peak"]
        # Surviving readers must not block compaction below the restored
        # frontier, nor claim versions the restored index never sealed.
        for handle in self._handles:
            handle.low_watermark = min(handle.low_watermark, self.sealed)
            handle.low_watermark = max(handle.low_watermark,
                                       self.compacted_through)

    def reset(self) -> None:
        """Full scratch reset (every deployment builds the dataflow with
        fresh operators; stale handles must not linger)."""
        for handle in list(self._handles):
            handle.attached = False
        self._handles = []
        self._reset_data()

    # ------------------------------------------------------------------
    # Observability

    @property
    def version_count(self) -> int:
        return len(self._deltas) + (1 if self._open else 0)

    @property
    def compaction_lag(self) -> int:
        return self.sealed - self.compacted_through

    def stats(self) -> Dict[str, Any]:
        return {
            "arrangement": self.name,
            "key": ",".join(self.key_columns),
            "readers": self.readers,
            "readers_peak": self.readers_peak,
            "readers_total": self.readers_total,
            "versions": self.version_count,
            "sealed": self.sealed,
            "compacted_through": self.compacted_through,
            "compaction_lag": self.compaction_lag,
            "compactions": self.compactions,
            "rows": self.rows,
            "distinct_keys": (len(self._base) + sum(
                len(delta) for delta in self._deltas.values())
                + len(self._open)),
            "bytes": self._bytes,
            "bytes_peak": self.bytes_peak,
        }


class ShardedArrangement:
    """The engine-facing view: one :class:`Arrangement` per subtask.

    The object is created once at plan-build time and closed over by the
    arrange operator and every reader operator, so all of them -- across
    scratch restarts and (fork-inherited) multiprocess workers -- resolve
    the same shards.
    """

    def __init__(self, name: str, key_columns: Tuple[str, ...],
                 parallelism: int, compaction_interval: int = 8) -> None:
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        self.name = name
        self.key_columns = tuple(key_columns)
        self.parallelism = parallelism
        self.shards = [Arrangement(name, key_columns, shard_index=index,
                                   compaction_interval=compaction_interval)
                       for index in range(parallelism)]

    def shard(self, index: int) -> Arrangement:
        return self.shards[index]

    def stats(self) -> Dict[str, Any]:
        """Aggregate stats across shards (per-shard rows come from the
        arrange operator's ``arrangement_report``)."""
        merged: Dict[str, Any] = {
            "arrangement": self.name,
            "key": ",".join(self.key_columns),
            "shards": self.parallelism,
        }
        for field in ("readers", "readers_peak", "readers_total", "rows",
                      "distinct_keys", "bytes", "bytes_peak", "compactions"):
            merged[field] = sum(shard.stats()[field] for shard in self.shards)
        merged["versions"] = max(shard.version_count for shard in self.shards)
        merged["compaction_lag"] = max(shard.compaction_lag
                                       for shard in self.shards)
        return merged
