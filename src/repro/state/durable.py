"""Durable, checksummed checkpoint persistence.

The in-memory :class:`~repro.state.checkpoint.CheckpointStore` is enough
for a job whose process survives, but the multiprocess backend's
failure domain is the OS: a respawned fleet must be able to restore
from artifacts that survived torn writes, and a corrupted artifact must
be *detected* -- not silently unpickled into garbage state.  A restart
on either backend restores through this store's verified read.  This module persists every
sealed checkpoint as one file::

    <dir>/chk-<id>.snap   the pickled CompletedCheckpoint behind a header

The header is a magic string, the CRC-32 of the payload and the payload
length.  The file is written to ``chk-<id>.snap.tmp``, ``fsync``ed and
then ``os.replace``d into place: the rename is the commit point, so a
checkpoint file is either absent or complete-and-verifiable.  A
leftover ``.tmp`` (a crash mid-write) is never read, and the next
garbage collection removes it.

Restore goes through :meth:`DurableCheckpointStore.load_latest_verified`,
which re-reads files from disk (never trusts in-memory copies -- that is
the whole point), walks retained checkpoints newest to oldest, and falls
back past any file whose header, length, checksum, payload type or
checkpoint id is wrong.  Corrupted checkpoints are counted, reported,
and deleted so the next walk does not re-verify them.
"""

from __future__ import annotations

import os
import pickle
import shutil
import struct
import zlib
from typing import Any, Dict, List, Optional, Set

from repro.state.checkpoint import (
    MAX_RETAINED_CHECKPOINTS,
    CheckpointStore,
    CompletedCheckpoint,
)

_MAGIC = b"RSNAP1\n"
_HEADER = struct.Struct("<IQ")  # crc32, payload length
_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL
_PREFIX = "chk-"
_SUFFIX = ".snap"


class CheckpointCorruptionError(Exception):
    """A persisted checkpoint failed verification (torn file, checksum
    mismatch, missing file, wrong checkpoint id)."""


def write_snapshot_file(path: str,
                        checkpoint: CompletedCheckpoint) -> Dict[str, Any]:
    """Persist one sealed checkpoint; returns its CRC and length."""
    payload = pickle.dumps(checkpoint, _PICKLE_PROTOCOL)
    crc = zlib.crc32(payload)
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(_MAGIC)
        handle.write(_HEADER.pack(crc, len(payload)))
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return {"crc32": crc, "length": len(payload)}


def read_snapshot_file(path: str) -> CompletedCheckpoint:
    """Read and verify one checkpoint file; raises
    :class:`CheckpointCorruptionError` on any mismatch."""
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise CheckpointCorruptionError(
            "checkpoint file %s unreadable: %s" % (path, exc))
    header_end = len(_MAGIC) + _HEADER.size
    if len(blob) < header_end or not blob.startswith(_MAGIC):
        raise CheckpointCorruptionError(
            "checkpoint file %s: bad or truncated header" % path)
    crc, length = _HEADER.unpack_from(blob, len(_MAGIC))
    payload = blob[header_end:]
    if len(payload) != length:
        raise CheckpointCorruptionError(
            "checkpoint file %s: torn payload (%d bytes, header says %d)"
            % (path, len(payload), length))
    if zlib.crc32(payload) != crc:
        raise CheckpointCorruptionError(
            "checkpoint file %s: CRC mismatch (payload %08x, header %08x)"
            % (path, zlib.crc32(payload), crc))
    try:
        checkpoint = pickle.loads(payload)
    except Exception as exc:
        raise CheckpointCorruptionError(
            "checkpoint file %s: payload does not unpickle: %r"
            % (path, exc))
    if not isinstance(checkpoint, CompletedCheckpoint):
        raise CheckpointCorruptionError(
            "checkpoint file %s: payload is %r, not a CompletedCheckpoint"
            % (path, type(checkpoint).__name__))
    return checkpoint


def _remove(path: str) -> None:
    if os.path.isdir(path):
        shutil.rmtree(path, ignore_errors=True)
    else:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass


class DurableCheckpointStore(CheckpointStore):
    """A :class:`CheckpointStore` that also persists every sealed
    checkpoint to ``directory`` and can restore from disk with
    verification and fallback.

    The directory is job-scoped: constructing a store wipes stale
    ``chk-*`` entries left by a previous job, because restoring another
    job's operator state would be silent corruption of the worst kind.
    ``fresh=False`` attaches to the directory *without* wiping -- the
    time-travel reader (:mod:`repro.state.timetravel`) uses it to load
    checkpoints a dead process left behind.
    """

    def __init__(self, directory: str,
                 max_retained: int = MAX_RETAINED_CHECKPOINTS,
                 fresh: bool = True) -> None:
        super().__init__(max_retained)
        self.directory = directory
        self.checkpoints_persisted = 0
        self.corruptions_detected = 0
        self.restore_fallbacks = 0
        os.makedirs(directory, exist_ok=True)
        if fresh:
            self._gc(keep=set())

    # -- persistence --------------------------------------------------------

    def _path_for(self, checkpoint_id: int) -> str:
        return os.path.join(self.directory, "%s%d%s"
                            % (_PREFIX, checkpoint_id, _SUFFIX))

    def add(self, checkpoint: CompletedCheckpoint) -> None:
        write_snapshot_file(self._path_for(checkpoint.checkpoint_id),
                            checkpoint)
        self.checkpoints_persisted += 1
        super().add(checkpoint)
        self._gc(keep={retained.checkpoint_id
                       for retained in self.all_retained})

    def _gc(self, keep: Set[int]) -> None:
        """Delete every ``chk-*`` entry except the committed files of the
        checkpoints in ``keep``: checkpoints that fell out of retention
        and any ``.tmp`` a crash left mid-write."""
        kept = {os.path.basename(self._path_for(checkpoint_id))
                for checkpoint_id in keep}
        for name in os.listdir(self.directory):
            if name.startswith(_PREFIX) and name not in kept:
                _remove(os.path.join(self.directory, name))

    def persisted_ids(self) -> List[int]:
        """Committed checkpoint ids on disk, oldest first."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        ids = []
        for name in names:
            if name.startswith(_PREFIX) and name.endswith(_SUFFIX):
                try:
                    ids.append(int(name[len(_PREFIX):-len(_SUFFIX)]))
                except ValueError:
                    continue
        return sorted(ids)

    def newest_file(self) -> Optional[str]:
        """The newest committed checkpoint file, or ``None``."""
        ids = self.persisted_ids()
        return self._path_for(ids[-1]) if ids else None

    # -- verified restore ---------------------------------------------------

    def load_verified(self, checkpoint_id: int) -> CompletedCheckpoint:
        """Re-read one persisted checkpoint from disk and verify it."""
        checkpoint = read_snapshot_file(self._path_for(checkpoint_id))
        if checkpoint.checkpoint_id != checkpoint_id:
            raise CheckpointCorruptionError(
                "checkpoint file %s holds checkpoint %r"
                % (self._path_for(checkpoint_id), checkpoint.checkpoint_id))
        return checkpoint

    def load_latest_verified(self) -> Optional[CompletedCheckpoint]:
        """The recovery entry point: newest intact persisted checkpoint,
        falling back past (and deleting) corrupted ones.  Returns
        ``None`` when nothing on disk survives verification -- the
        caller restarts from scratch.  A checkpoint this store sealed
        whose file is gone counts as corrupted too."""
        sealed = {checkpoint.checkpoint_id
                  for checkpoint in self.all_retained}
        first = True
        for checkpoint_id in sorted(sealed.union(self.persisted_ids()),
                                    reverse=True):
            try:
                checkpoint = self.load_verified(checkpoint_id)
            except CheckpointCorruptionError:
                self.corruptions_detected += 1
                _remove(self._path_for(checkpoint_id))
                self.discard(checkpoint_id)
                first = False
                continue
            if not first:
                self.restore_fallbacks += 1
            return checkpoint
        return None

    def durability_stats(self) -> Dict[str, int]:
        return {
            "persisted": self.checkpoints_persisted,
            "retained_on_disk": len(self.persisted_ids()),
            "corruptions_detected": self.corruptions_detected,
            "restore_fallbacks": self.restore_fallbacks,
        }
