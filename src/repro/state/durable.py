"""Durable, checksummed checkpoint persistence.

The in-memory :class:`~repro.state.checkpoint.CheckpointStore` is enough
for in-process recovery, but the multiprocess backend's failure domain
is the OS: a respawned fleet must be able to restore from artifacts that
survived torn writes, and a corrupted artifact must be *detected* -- not
silently unpickled into garbage state.  This module persists every
sealed checkpoint as a directory::

    <dir>/chk-<id>/subtask-<n>.snap   one CRC-framed pickle per subtask
    <dir>/chk-<id>/manifest.json      the commit record, written last

Each snapshot file carries a header (magic, CRC-32 of the payload,
payload length) and is published via write-to-temp + ``os.replace``, so
a file is either absent or complete-and-verifiable.  The manifest --
also replace-committed -- names every snapshot file with its expected
CRC and length and is the *commit point*: a directory without a
manifest is a torn checkpoint and is ignored (then garbage-collected).

Restore goes through :meth:`DurableCheckpointStore.load_latest_verified`,
which re-reads artifacts from disk (never trusts in-memory copies --
that is the whole point), walks retained checkpoints newest to oldest,
and falls back past any checkpoint whose manifest is unreadable, whose
files are missing, or whose checksums disagree.  Corrupted checkpoints
are counted, reported, and deleted so the next walk does not re-verify
them.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import struct
import zlib
from typing import Any, Dict, List, Optional

from repro.state.checkpoint import (
    MAX_RETAINED_CHECKPOINTS,
    CheckpointStore,
    CompletedCheckpoint,
    TaskSnapshot,
)

_MAGIC = b"RSNAP1\n"
_HEADER = struct.Struct("<IQ")  # crc32, payload length
_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL
_MANIFEST = "manifest.json"
_DIR_PREFIX = "chk-"


class CheckpointCorruptionError(Exception):
    """A persisted checkpoint failed verification (torn file, checksum
    mismatch, missing artifact)."""


def write_snapshot_file(path: str, snapshot: TaskSnapshot) -> Dict[str, Any]:
    """Persist one subtask snapshot; returns its manifest entry."""
    payload = pickle.dumps(snapshot, _PICKLE_PROTOCOL)
    crc = zlib.crc32(payload)
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(_MAGIC)
        handle.write(_HEADER.pack(crc, len(payload)))
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return {"file": os.path.basename(path), "crc32": crc,
            "length": len(payload),
            "subtask": list(snapshot.subtask)}


def read_snapshot_file(path: str,
                       expected_crc: Optional[int] = None) -> TaskSnapshot:
    """Read and verify one snapshot file; raises
    :class:`CheckpointCorruptionError` on any mismatch."""
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise CheckpointCorruptionError(
            "snapshot file %s unreadable: %s" % (path, exc))
    header_end = len(_MAGIC) + _HEADER.size
    if len(blob) < header_end or not blob.startswith(_MAGIC):
        raise CheckpointCorruptionError(
            "snapshot file %s: bad or truncated header" % path)
    crc, length = _HEADER.unpack_from(blob, len(_MAGIC))
    payload = blob[header_end:]
    if len(payload) != length:
        raise CheckpointCorruptionError(
            "snapshot file %s: torn payload (%d bytes, header says %d)"
            % (path, len(payload), length))
    if zlib.crc32(payload) != crc:
        raise CheckpointCorruptionError(
            "snapshot file %s: CRC mismatch (payload %08x, header %08x)"
            % (path, zlib.crc32(payload), crc))
    if expected_crc is not None and crc != expected_crc:
        raise CheckpointCorruptionError(
            "snapshot file %s: CRC %08x disagrees with manifest %08x"
            % (path, crc, expected_crc))
    try:
        snapshot = pickle.loads(payload)
    except Exception as exc:
        raise CheckpointCorruptionError(
            "snapshot file %s: payload does not unpickle: %r" % (path, exc))
    if not isinstance(snapshot, TaskSnapshot):
        raise CheckpointCorruptionError(
            "snapshot file %s: payload is %r, not a TaskSnapshot"
            % (path, type(snapshot).__name__))
    return snapshot


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
            for name in os.listdir(directory):
                if name.startswith(_DIR_PREFIX):
                    shutil.rmtree(os.path.join(directory, name),
                                  ignore_errors=True)

    # -- persistence --------------------------------------------------------

    def _path_for(self, checkpoint_id: int) -> str:
        return os.path.join(self.directory, "%s%d"
                            % (_DIR_PREFIX, checkpoint_id))

    def add(self, checkpoint: CompletedCheckpoint) -> None:
        self._persist(checkpoint)
        super().add(checkpoint)
        self._gc()

    def _persist(self, checkpoint: CompletedCheckpoint) -> None:
        target = self._path_for(checkpoint.checkpoint_id)
        os.makedirs(target, exist_ok=True)
        entries: List[Dict[str, Any]] = []
        for index, subtask in enumerate(sorted(checkpoint.snapshots)):
            entries.append(write_snapshot_file(
                os.path.join(target, "subtask-%d.snap" % index),
                checkpoint.snapshots[subtask]))
        manifest = {
            "checkpoint_id": checkpoint.checkpoint_id,
            "trigger_time": checkpoint.trigger_time,
            "completion_time": checkpoint.completion_time,
            "snapshots": entries,
        }
        tmp = os.path.join(target, _MANIFEST + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, os.path.join(target, _MANIFEST))
        self.checkpoints_persisted += 1

    def _gc(self) -> None:
        """Delete persisted checkpoints that fell out of retention, and
        any torn directory that never got its manifest committed."""
        retained = {checkpoint.checkpoint_id
                    for checkpoint in self.all_retained}
        for checkpoint_id in self.persisted_ids():
            if checkpoint_id not in retained:
                shutil.rmtree(self._path_for(checkpoint_id),
                              ignore_errors=True)
        for name in os.listdir(self.directory):
            path = os.path.join(self.directory, name)
            if (name.startswith(_DIR_PREFIX) and os.path.isdir(path)
                    and not os.path.exists(os.path.join(path, _MANIFEST))):
                shutil.rmtree(path, ignore_errors=True)

    def persisted_ids(self) -> List[int]:
        """Committed (manifest present) checkpoint ids on disk, oldest
        first."""
        ids = []
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        for name in names:
            if not name.startswith(_DIR_PREFIX):
                continue
            if not os.path.exists(os.path.join(self.directory, name,
                                               _MANIFEST)):
                continue
            try:
                ids.append(int(name[len(_DIR_PREFIX):]))
            except ValueError:
                continue
        return sorted(ids)

    # -- verified restore ---------------------------------------------------

    def load_verified(self, checkpoint_id: int) -> CompletedCheckpoint:
        """Re-read one persisted checkpoint from disk, verifying the
        manifest and every snapshot checksum."""
        target = self._path_for(checkpoint_id)
        try:
            with open(os.path.join(target, _MANIFEST), "r",
                      encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError) as exc:
            raise CheckpointCorruptionError(
                "checkpoint %d: manifest unreadable: %r"
                % (checkpoint_id, exc))
        if manifest.get("checkpoint_id") != checkpoint_id:
            raise CheckpointCorruptionError(
                "checkpoint %d: manifest claims id %r"
                % (checkpoint_id, manifest.get("checkpoint_id")))
        snapshots: Dict[Any, TaskSnapshot] = {}
        for entry in manifest.get("snapshots", []):
            snapshot = read_snapshot_file(
                os.path.join(target, entry["file"]),
                expected_crc=entry.get("crc32"))
            recorded = tuple(entry.get("subtask", ()))
            if recorded and tuple(snapshot.subtask) != recorded:
                raise CheckpointCorruptionError(
                    "checkpoint %d: %s holds snapshot for %r, manifest "
                    "says %r" % (checkpoint_id, entry["file"],
                                 snapshot.subtask, recorded))
            snapshots[snapshot.subtask] = snapshot
        return CompletedCheckpoint(checkpoint_id, snapshots,
                                   manifest.get("trigger_time", 0),
                                   manifest.get("completion_time", 0))

    def load_latest_verified(self) -> Optional[CompletedCheckpoint]:
        """The recovery entry point: newest intact persisted checkpoint,
        falling back past (and deleting) corrupted ones.  Returns
        ``None`` when nothing on disk survives verification -- the
        caller restarts from scratch."""
        first = True
        for checkpoint_id in reversed(self.persisted_ids()):
            try:
                checkpoint = self.load_verified(checkpoint_id)
            except CheckpointCorruptionError:
                self.corruptions_detected += 1
                shutil.rmtree(self._path_for(checkpoint_id),
                              ignore_errors=True)
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
