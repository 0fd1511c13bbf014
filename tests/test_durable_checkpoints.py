"""Unit tests for durable checksummed checkpoint persistence.

Every corruption mode the chaos harness can inflict on a checkpoint file
-- a flipped byte, truncation, a deleted file, a garbage header, a file
holding another checkpoint, a write torn before its rename -- must be
*detected* by the verified-restore path and survived by falling back to
the next-oldest intact checkpoint.
"""

import os
import pickle

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


def two_checkpoints(tmp_path):
    store = DurableCheckpointStore(str(tmp_path), max_retained=3)
    store.add(completed(1, total=10))
    store.add(completed(2, total=20))
    return store, os.path.join(str(tmp_path), "chk-2.snap")


def assert_fell_back_to_1(store):
    assert store.load_latest_verified().checkpoint_id == 1
    assert store.corruptions_detected == 1
    assert store.restore_fallbacks == 1
    # The corrupt checkpoint was deleted, not retried forever.
    assert store.persisted_ids() == [1]
    assert store.latest.checkpoint_id == 1


class TestSnapshotFile:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "one.snap")
        entry = write_snapshot_file(path, completed(7, total=42))
        restored = read_snapshot_file(path)
        # The header: a 7-byte magic, the CRC-32 and an 8-byte length.
        assert entry["length"] == os.path.getsize(path) - 19
        assert restored.checkpoint_id == 7
        assert (restored.trigger_time, restored.completion_time) == (70, 75)
        assert restored.snapshots[("1-op", 0)].keyed_state == {
            "sum": {"k": 42}}

    def test_flipped_byte_detected(self, tmp_path):
        path = str(tmp_path / "one.snap")
        write_snapshot_file(path, completed(1))
        with open(path, "r+b") as handle:
            blob = handle.read()
            handle.seek(len(blob) // 2)
            handle.write(bytes([blob[len(blob) // 2] ^ 0xFF]))
        with pytest.raises(CheckpointCorruptionError, match="CRC"):
            read_snapshot_file(path)

    def test_truncation_detected(self, tmp_path):
        path = str(tmp_path / "one.snap")
        write_snapshot_file(path, completed(1))
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 3)
        with pytest.raises(CheckpointCorruptionError, match="torn"):
            read_snapshot_file(path)

    def test_missing_file_detected(self, tmp_path):
        with pytest.raises(CheckpointCorruptionError, match="unreadable"):
            read_snapshot_file(str(tmp_path / "absent.snap"))

    def test_payload_of_another_type_detected(self, tmp_path):
        """A well-framed file whose payload is not a checkpoint (say, one
        subtask's snapshot) is rejected after unpickling."""
        path = str(tmp_path / "one.snap")
        write_snapshot_file(path, snap())
        with pytest.raises(CheckpointCorruptionError,
                           match="not a CompletedCheckpoint"):
            read_snapshot_file(path)


class TestStore:
    def test_persists_and_restores(self, tmp_path):
        store, _ = two_checkpoints(tmp_path)
        assert store.persisted_ids() == [1, 2]
        # One file per checkpoint: no manifest, no per-subtask files.
        assert sorted(os.listdir(str(tmp_path))) == [
            "chk-1.snap", "chk-2.snap"]
        assert store.newest_file() == str(tmp_path / "chk-2.snap")
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
        assert sorted(os.listdir(str(tmp_path))) == [
            "chk-3.snap", "chk-4.snap"]

    def test_corrupt_newest_falls_back_to_older(self, tmp_path):
        store, victim = two_checkpoints(tmp_path)
        with open(victim, "r+b") as handle:
            handle.seek(40)
            handle.write(b"\xff\xff\xff\xff")
        assert_fell_back_to_1(store)

    def test_truncated_newest_falls_back(self, tmp_path):
        store, victim = two_checkpoints(tmp_path)
        with open(victim, "r+b") as handle:
            handle.truncate(os.path.getsize(victim) // 2)
        assert_fell_back_to_1(store)

    def test_missing_checkpoint_file_falls_back(self, tmp_path):
        """The store sealed checkpoint 2, so its vanished file is a
        corruption, not a checkpoint that never happened."""
        store, victim = two_checkpoints(tmp_path)
        os.remove(victim)
        assert_fell_back_to_1(store)

    def test_garbage_header_falls_back(self, tmp_path):
        store, victim = two_checkpoints(tmp_path)
        with open(victim, "r+b") as handle:
            handle.write(b"garbage")
        assert_fell_back_to_1(store)

    def test_all_corrupt_returns_none(self, tmp_path):
        store = DurableCheckpointStore(str(tmp_path), max_retained=3)
        store.add(completed(1))
        with open(str(tmp_path / "chk-1.snap"), "w") as handle:
            handle.write("garbage")
        assert store.load_latest_verified() is None
        assert store.corruptions_detected == 1

    def test_leftover_tmp_is_ignored_then_removed(self, tmp_path):
        """A crash between writing ``chk-3.snap.tmp`` and its rename:
        restore falls back to the newest committed file, and the next
        seal's garbage collection removes the leftover."""
        store, _ = two_checkpoints(tmp_path)
        leftover = str(tmp_path / "chk-3.snap.tmp")
        with open(leftover, "wb") as handle:
            handle.write(pickle.dumps(completed(3)))
        assert store.persisted_ids() == [1, 2]
        assert store.load_latest_verified().checkpoint_id == 2
        store.add(completed(4))
        assert not os.path.exists(leftover)
        assert store.persisted_ids() == [1, 2, 4]

    def test_checkpoint_id_must_match_file_name(self, tmp_path):
        """A valid file renamed over another checkpoint's has a good CRC
        but the wrong identity -- the id inside the file catches it."""
        store, victim = two_checkpoints(tmp_path)
        write_snapshot_file(victim, completed(1, total=99))
        with pytest.raises(CheckpointCorruptionError,
                           match="holds checkpoint 1"):
            store.load_verified(2)
        assert_fell_back_to_1(store)

    def test_fresh_store_wipes_stale_job_artifacts(self, tmp_path):
        first = DurableCheckpointStore(str(tmp_path), max_retained=3)
        first.add(completed(1))
        open(str(tmp_path / "chk-2.snap.tmp"), "w").close()
        os.makedirs(str(tmp_path / "chk-0"))
        open(str(tmp_path / "unrelated.txt"), "w").close()
        second = DurableCheckpointStore(str(tmp_path), max_retained=3)
        assert second.persisted_ids() == []
        assert second.load_latest_verified() is None
        assert os.listdir(str(tmp_path)) == ["unrelated.txt"]

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
