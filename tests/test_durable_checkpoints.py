"""Unit tests for durable checksummed checkpoint persistence.

Every corruption mode the chaos harness can inflict -- flipped bytes,
truncation, a deleted snapshot, a torn directory with no manifest, a
garbage manifest -- must be *detected* by the verified-restore path and
survived by falling back to the next-oldest intact checkpoint.
"""

import json
import os

import pytest

from repro.state.checkpoint import CompletedCheckpoint, TaskSnapshot
from repro.state.durable import (
    CheckpointCorruptionError,
    DurableCheckpointStore,
    read_snapshot_file,
    write_snapshot_file,
)


def snap(op="op", index=0, total=0):
    return TaskSnapshot(("1-%s" % op, index), {"sum": {"k": total}})


def completed(checkpoint_id, total=0):
    snapshots = {}
    for index in range(2):
        one = snap(index=index, total=total + index)
        snapshots[one.subtask] = one
    return CompletedCheckpoint(checkpoint_id, snapshots,
                               trigger_time=checkpoint_id * 10,
                               completion_time=checkpoint_id * 10 + 5)


class TestSnapshotFile:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "one.snap")
        entry = write_snapshot_file(path, snap(total=42))
        restored = read_snapshot_file(path, expected_crc=entry["crc32"])
        assert restored.keyed_state == {"sum": {"k": 42}}
        assert tuple(entry["subtask"]) == restored.subtask

    def test_flipped_byte_detected(self, tmp_path):
        path = str(tmp_path / "one.snap")
        write_snapshot_file(path, snap())
        with open(path, "r+b") as handle:
            blob = handle.read()
            handle.seek(len(blob) // 2)
            handle.write(bytes([blob[len(blob) // 2] ^ 0xFF]))
        with pytest.raises(CheckpointCorruptionError):
            read_snapshot_file(path)

    def test_truncation_detected(self, tmp_path):
        path = str(tmp_path / "one.snap")
        write_snapshot_file(path, snap())
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 3)
        with pytest.raises(CheckpointCorruptionError, match="torn"):
            read_snapshot_file(path)

    def test_missing_file_detected(self, tmp_path):
        with pytest.raises(CheckpointCorruptionError, match="unreadable"):
            read_snapshot_file(str(tmp_path / "absent.snap"))

    def test_manifest_crc_disagreement_detected(self, tmp_path):
        path = str(tmp_path / "one.snap")
        entry = write_snapshot_file(path, snap())
        with pytest.raises(CheckpointCorruptionError, match="manifest"):
            read_snapshot_file(path, expected_crc=entry["crc32"] ^ 1)


class TestStore:
    def test_persists_and_restores(self, tmp_path):
        store = DurableCheckpointStore(str(tmp_path), max_retained=3)
        store.add(completed(1, total=10))
        store.add(completed(2, total=20))
        assert store.persisted_ids() == [1, 2]
        restored = store.load_latest_verified()
        assert restored.checkpoint_id == 2
        one = restored.snapshots[("1-op", 0)]
        assert one.keyed_state == {"sum": {"k": 20}}
        assert store.restore_fallbacks == 0

    def test_retention_gc(self, tmp_path):
        store = DurableCheckpointStore(str(tmp_path), max_retained=2)
        for checkpoint_id in (1, 2, 3, 4):
            store.add(completed(checkpoint_id))
        assert store.persisted_ids() == [3, 4]

    def test_corrupt_newest_falls_back_to_older(self, tmp_path):
        store = DurableCheckpointStore(str(tmp_path), max_retained=3)
        store.add(completed(1, total=10))
        store.add(completed(2, total=20))
        victim = os.path.join(str(tmp_path), "chk-2", "subtask-0.snap")
        with open(victim, "r+b") as handle:
            handle.seek(20)
            handle.write(b"\xff\xff\xff\xff")
        restored = store.load_latest_verified()
        assert restored.checkpoint_id == 1
        assert store.corruptions_detected == 1
        assert store.restore_fallbacks == 1
        # The corrupt checkpoint was deleted, not retried forever.
        assert store.persisted_ids() == [1]
        assert store.latest.checkpoint_id == 1

    def test_missing_snapshot_file_falls_back(self, tmp_path):
        store = DurableCheckpointStore(str(tmp_path), max_retained=3)
        store.add(completed(1))
        store.add(completed(2))
        os.remove(os.path.join(str(tmp_path), "chk-2", "subtask-1.snap"))
        assert store.load_latest_verified().checkpoint_id == 1
        assert store.corruptions_detected == 1

    def test_garbage_manifest_falls_back(self, tmp_path):
        store = DurableCheckpointStore(str(tmp_path), max_retained=3)
        store.add(completed(1))
        store.add(completed(2))
        manifest = os.path.join(str(tmp_path), "chk-2", "manifest.json")
        with open(manifest, "w") as handle:
            handle.write("{not json")
        assert store.load_latest_verified().checkpoint_id == 1

    def test_all_corrupt_returns_none(self, tmp_path):
        store = DurableCheckpointStore(str(tmp_path), max_retained=3)
        store.add(completed(1))
        with open(os.path.join(str(tmp_path), "chk-1", "subtask-0.snap"),
                  "w") as handle:
            handle.write("garbage")
        assert store.load_latest_verified() is None
        assert store.corruptions_detected == 1

    def test_torn_directory_without_manifest_is_ignored(self, tmp_path):
        store = DurableCheckpointStore(str(tmp_path), max_retained=3)
        store.add(completed(1))
        torn = os.path.join(str(tmp_path), "chk-9")
        os.makedirs(torn)
        write_snapshot_file(os.path.join(torn, "subtask-0.snap"), snap())
        assert store.persisted_ids() == [1]
        assert store.load_latest_verified().checkpoint_id == 1

    def test_manifest_subtask_cross_check(self, tmp_path):
        """A snapshot file swapped in from another subtask has a valid
        CRC but the wrong identity -- the manifest catches it."""
        store = DurableCheckpointStore(str(tmp_path), max_retained=3)
        store.add(completed(1))
        target = os.path.join(str(tmp_path), "chk-1")
        manifest_path = os.path.join(target, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        entry = manifest["snapshots"][0]
        imposter = snap(index=5)
        imposter_entry = write_snapshot_file(
            os.path.join(target, entry["file"]), imposter)
        entry["crc32"] = imposter_entry["crc32"]
        entry["length"] = imposter_entry["length"]
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(CheckpointCorruptionError, match="manifest"):
            store.load_verified(1)

    def test_fresh_store_wipes_stale_job_artifacts(self, tmp_path):
        first = DurableCheckpointStore(str(tmp_path), max_retained=3)
        first.add(completed(1))
        second = DurableCheckpointStore(str(tmp_path), max_retained=3)
        assert second.persisted_ids() == []
        assert second.load_latest_verified() is None

    def test_durability_stats(self, tmp_path):
        store = DurableCheckpointStore(str(tmp_path), max_retained=2)
        for checkpoint_id in (1, 2, 3):
            store.add(completed(checkpoint_id))
        stats = store.durability_stats()
        assert stats == {"persisted": 3, "retained_on_disk": 2,
                         "corruptions_detected": 0, "restore_fallbacks": 0}


def test_cooperative_job_reports_durable_counters(tmp_path):
    """A cooperative run with ``checkpoint_dir`` counts what it persisted
    in ``JobResult.counters``, under the names the multiprocess backend
    uses."""
    from repro.api import Environment
    from repro.runtime.engine import EngineConfig
    env = Environment(config=EngineConfig(
        checkpoint_interval_ms=5, elements_per_step=4,
        checkpoint_dir=str(tmp_path)))
    (env.from_collection(range(400)).key_by(lambda value: value % 3)
     .sum().collect())
    result = env.execute()
    assert result.checkpoints_completed > 0
    assert result.counters["checkpoints_persisted"] == (
        result.checkpoints_completed)
    assert result.counters["checkpoint_corruptions_detected"] == 0
    assert result.counters["checkpoint_restore_fallbacks"] == 0
