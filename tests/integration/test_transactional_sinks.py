"""Integration tests for the exactly-once (two-phase-commit) file sinks.

The contract under test: the visible target file only ever contains the
records of committed transactions, a job killed mid-flight leaves a
clean committed prefix (never a torn suffix), and a job that crashes and
recovers from a checkpoint produces *exactly* the failure-free output --
no duplicates from replay, no holes from the crash.
"""

import glob
import os

import pytest

from repro.api import Environment
from repro.connectors import (
    TransactionalCsvFileSink,
    TransactionalJsonlFileSink,
    TransactionalTextFileSink,
)
from repro.runtime.engine import EngineConfig
from repro.runtime.faults import CRASH, FaultEvent, FaultInjector
from repro.runtime.restart import FixedDelayRestart
from repro.state import TaskSnapshot
from repro.time.watermarks import WatermarkStrategy
from repro.windowing import CountAggregate, TumblingEventTimeWindows


def checkpointed(sink):
    """The sink's state as a checkpoint keeps it: through the
    :class:`TaskSnapshot` the task builds at the barrier."""
    return TaskSnapshot(("1-sink", 0), {}, sink.snapshot())


def read_lines(path):
    with open(path) as handle:
        return handle.read().splitlines()


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def assert_no_leftovers(path):
    """The target is the sink's only file: no temp, side or meta file
    sits next to it."""
    assert glob.glob(glob.escape(path) + ".*") == []


def assert_only_target(path):
    assert os.listdir(os.path.dirname(path)) == [os.path.basename(path)]


class TornAppendSink(TransactionalTextFileSink):
    """Crashes once, inside its second append with content (a commit),
    after writing half of the bytes.  The marker file outlives the
    process, so the restarted or respawned attempt appends normally."""

    def __init__(self, path, marker, crash, **kwargs):
        super().__init__(path, **kwargs)
        self.marker = marker
        self.crash = crash
        self.appends = 0

    def _write(self, offset, lines):
        if lines:
            self.appends += 1
        if self.appends == 2 and not os.path.exists(self.marker):
            open(self.marker, "w").close()
            data = "".join(line + "\n" for line in lines).encode()
            with open(self.path, "ab") as handle:
                handle.write(data[:len(data) // 2])
            self.crash()
        super()._write(offset, lines)


@pytest.fixture
def disk(monkeypatch):
    """Records every ``open`` and ``fsync`` of the sink module, and the
    bytes written through the handles it opened."""
    from repro.connectors import sinks
    log = {"calls": [], "written": 0}
    real_open, real_fsync = open, os.fsync

    class Handle:
        def __init__(self, inner):
            self._inner = inner

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._inner.close()

        def write(self, data):
            log["written"] += len(data)
            return self._inner.write(data)

        def __getattr__(self, name):
            return getattr(self._inner, name)

    def counting_open(path, mode="r", *args, **kwargs):
        log["calls"].append(("open", os.path.basename(path), mode))
        return Handle(real_open(path, mode, *args, **kwargs))

    def counting_fsync(fd):
        log["calls"].append(("fsync",))
        real_fsync(fd)

    monkeypatch.setattr(sinks, "open", counting_open, raising=False)
    monkeypatch.setattr(sinks.os, "fsync", counting_fsync)
    return log


class TestTwoPhaseCommitProtocol:
    """Driving the sink by hand, without an engine."""

    def test_pre_commit_stays_in_memory_then_commit_appends(self, tmp_path,
                                                            disk):
        path = str(tmp_path / "out.txt")
        sink = TransactionalTextFileSink(path)
        sink.open()
        sink.write("a")
        sink.write("b")
        assert read_lines(path) == []  # buffered, nothing visible

        del disk["calls"][:]
        sink.pre_commit(1)
        assert disk["calls"] == []  # sealed in memory, nothing on disk
        assert read_lines(path) == []

        sink.commit_through(1)  # one append, one fsync
        assert disk["calls"] == [("open", "out.txt", "ab"), ("fsync",)]
        assert read_lines(path) == ["a", "b"]
        assert_only_target(path)
        assert sink.transactions_committed == 1

    def test_commit_through_is_idempotent_and_ordered(self, tmp_path):
        path = str(tmp_path / "out.txt")
        sink = TransactionalTextFileSink(path)
        sink.open()
        sink.write("a")
        sink.pre_commit(1)
        sink.write("b")
        sink.pre_commit(2)
        sink.commit_through(2)  # commits 1 then 2
        assert read_lines(path) == ["a", "b"]
        sink.commit_through(2)  # replayed notification: no-op
        assert read_lines(path) == ["a", "b"]
        assert sink.transactions_committed == 2

    def test_abort_discards_transaction(self, tmp_path):
        path = str(tmp_path / "out.txt")
        sink = TransactionalTextFileSink(path)
        sink.open()
        sink.write("doomed")
        sink.pre_commit(1)
        sink.abort(1)
        sink.commit_through(1)
        assert read_lines(path) == []
        assert_no_leftovers(path)
        assert sink.transactions_aborted == 1

    def test_recover_commits_durable_and_aborts_the_rest(self, tmp_path):
        path = str(tmp_path / "out.txt")
        sink = TransactionalTextFileSink(path)
        sink.open()
        sink.write("durable")
        sink.pre_commit(1)
        checkpoint = checkpointed(sink)
        sink.write("after-cut")
        sink.pre_commit(2)
        sink.write("in-buffer")
        # The restored checkpoint only knew about txn 1: txn 2 and the
        # open buffer lie beyond the replay point and must vanish.
        sink.recover(checkpoint.operator_state)
        assert read_lines(path) == ["durable"]
        assert sink.snapshot()["pending"] == {}
        assert sink.transactions_aborted == 1
        assert_no_leftovers(path)

    def test_snapshot_does_not_alias_pending_lines(self, tmp_path):
        # The store keeps the checkpoint, and restores it again on a
        # second failure.
        path = str(tmp_path / "out.txt")
        sink = TransactionalTextFileSink(path)
        sink.open()
        sink.write("a")
        sink.pre_commit(1)
        checkpoint = checkpointed(sink)
        sink._pending[1].append("late")
        assert checkpoint.operator_state["pending"] == {1: ["a"]}
        sink.recover(checkpoint.operator_state)
        sink.recover(checkpoint.operator_state)
        assert checkpoint.operator_state["pending"] == {1: ["a"]}
        assert read_lines(path) == ["a"]

    def test_resident_memory_is_bounded_by_open_transactions(self, tmp_path):
        """Committed lines leave memory: commits 201..400 of 50 lines
        each grow the heap by a small fraction of what keeping them
        resident would cost."""
        import tracemalloc
        sink = TransactionalTextFileSink(str(tmp_path / "out.txt"))
        sink.open()

        def commit(txn):
            for line in range(50):
                sink.write("transaction %06d line %02d" % (txn, line))
            sink.pre_commit(txn)
            sink.commit_through(txn)

        tracemalloc.start()
        try:
            for txn in range(1, 201):
                commit(txn)
            at_200 = tracemalloc.get_traced_memory()[0]
            for txn in range(201, 401):
                commit(txn)
            at_400 = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # Keeping the 10,000 lines of commits 201..400 costs ~800 KB.
        assert at_400 - at_200 < 40 * 1024
        assert sink.records_committed == 400 * 50
        assert os.path.getsize(sink.path) == 400 * 50 * 27


class TestExactlyOnceThroughEngine:
    def _pipeline(self, env, sink, values=200):
        (env.from_collection(range(values))
            .map(lambda v: v * 2, name="double")
            .add_sink(sink, name="txn-sink"))

    def test_matches_plain_run_without_failures(self, tmp_path):
        path = str(tmp_path / "out.txt")
        sink = TransactionalTextFileSink(path)
        env = Environment(
            config=EngineConfig(checkpoint_interval_ms=5, elements_per_step=4))
        self._pipeline(env, sink)
        env.execute()
        assert read_lines(path) == [str(v * 2) for v in range(200)]
        assert sink.transactions_committed >= 1
        assert_no_leftovers(path)

    def test_cancelled_job_leaves_a_committed_prefix(self, tmp_path):
        path = str(tmp_path / "out.txt")
        sink = TransactionalTextFileSink(path)

        def cancel(engine, rounds):
            return engine.coordinator.completed >= 2

        env = Environment(
            config=EngineConfig(checkpoint_interval_ms=5, elements_per_step=4,
                                cancel_hook=cancel))
        self._pipeline(env, sink, values=5000)
        job = env.execute()
        assert job.cancelled

        expected = [str(v * 2) for v in range(5000)]
        lines = read_lines(path)
        # A clean, non-empty, strict prefix: committed transactions only,
        # never a torn or uncommitted suffix.
        assert 0 < len(lines) < len(expected)
        assert lines == expected[:len(lines)]
        assert_no_leftovers(path)

        # Rerunning the job against the same path republishes in full.
        retry = TransactionalTextFileSink(path)
        env2 = Environment(
            config=EngineConfig(checkpoint_interval_ms=5, elements_per_step=4))
        self._pipeline(env2, retry, values=5000)
        env2.execute()
        assert read_lines(path) == expected

    def test_exactly_once_across_crash_recovery(self, tmp_path):
        def run(path, faults=None, strategy=None):
            sink = TransactionalTextFileSink(path)
            env = Environment(
                config=EngineConfig(checkpoint_interval_ms=5,
                                    elements_per_step=4,
                                    restart_strategy=strategy, faults=faults))
            data = [("k%d" % (i % 5), 1) for i in range(2000)]
            (env.from_collection(data)
                .key_by(lambda v: v[0])
                .count()
                .add_sink(sink, name="txn-sink"))
            job = env.execute()
            return read_lines(path), job

        clean, _ = run(str(tmp_path / "clean.txt"))
        recovered, job = run(
            str(tmp_path / "recovered.txt"),
            faults=FaultInjector([FaultEvent(
                CRASH, when=lambda view: view.rounds >= 150)]),
            strategy=FixedDelayRestart(max_restarts=3, delay_ms=1))
        assert job.restarts == 1
        # Replay re-emits records after the restored cut; an at-least-once
        # sink would show them twice.  Exactly-once output is identical.
        assert sorted(recovered) == sorted(clean)

    def test_crash_before_first_checkpoint_restarts_clean(self, tmp_path):
        path = str(tmp_path / "out.txt")
        sink = TransactionalTextFileSink(path)
        faults = FaultInjector([FaultEvent(
            CRASH, when=lambda view: view.rounds >= 3)])
        env = Environment(
            config=EngineConfig(checkpoint_interval_ms=1000,
                                elements_per_step=4,
                                restart_strategy=FixedDelayRestart(
                                    max_restarts=3, delay_ms=1),
                                faults=faults))
        self._pipeline(env, sink)
        job = env.execute()
        assert job.restarts == 1
        # The from-scratch redeploy reopened the sink, wiping whatever the
        # first attempt pre-committed.
        assert read_lines(path) == [str(v * 2) for v in range(200)]
        assert_no_leftovers(path)

    def test_crash_inside_a_commit_leaves_the_unfaulted_bytes(self,
                                                              tmp_path):
        """The process dies halfway through appending a committed
        transaction: the restore truncates the torn tail and re-appends
        the transaction from the checkpoint."""
        def run(path, sink):
            os.makedirs(os.path.dirname(path))
            env = Environment(config=EngineConfig(
                checkpoint_interval_ms=5, elements_per_step=4,
                restart_strategy=FixedDelayRestart(max_restarts=3,
                                                   delay_ms=1)))
            self._pipeline(env, sink, values=2000)
            return env.execute()

        def crash():
            raise RuntimeError("killed inside the append")

        clean = str(tmp_path / "clean" / "out.txt")
        run(clean, TransactionalTextFileSink(clean))
        path = str(tmp_path / "torn" / "out.txt")
        marker = str(tmp_path / "crashed")
        job = run(path, TornAppendSink(path, marker, crash))
        assert os.path.exists(marker) and job.restarts == 1
        assert read_bytes(path) == read_bytes(clean)
        assert_only_target(path)

    def test_keyed_window_job_writes_each_byte_once(self, tmp_path, disk):
        """The append-only count guard: on a checkpointed keyed-window
        job the bytes the sink writes equal the final file size, a
        rewrite ratio of 1.0 however many commits the job makes."""
        path = str(tmp_path / "windows.jsonl")
        sink = TransactionalJsonlFileSink(path)
        env = Environment(config=EngineConfig(checkpoint_interval_ms=5,
                                              elements_per_step=4))
        events = [("k%d" % (index % 13), index) for index in range(3000)]
        (env.from_collection(events)
            .assign_timestamps_and_watermarks(
                WatermarkStrategy.for_monotonic_timestamps(
                    lambda value: value[1]))
            .key_by(lambda value: value[0])
            .window(TumblingEventTimeWindows.of(100))
            .aggregate(CountAggregate())
            .add_sink(sink, name="txn-sink"))
        env.execute()
        assert sink.transactions_committed >= 10
        assert len(read_lines(path)) == 13 * 30
        assert disk["written"] == os.path.getsize(path)
        assert_only_target(path)

    def test_parallel_transactional_sink_is_rejected(self, tmp_path):
        sink = TransactionalTextFileSink(str(tmp_path / "out.txt"))
        env = Environment(parallelism=2)
        stream = env.from_collection(range(10))
        with pytest.raises(ValueError, match="parallelism 1"):
            stream.add_sink(sink, parallelism=2)


class TestExactlyOnceOnABoundedPipeline:
    """``DataSet.add_sink`` is ``DataStream.add_sink``: data at rest
    commits through the same two-phase protocol (it used to wrap the
    sink object in a ``ForEachSink`` and die calling it)."""

    def _run(self, path, **config):
        sink = TransactionalJsonlFileSink(path)
        env = Environment(config=EngineConfig(
            checkpoint_interval_ms=5, elements_per_step=4, **config))
        (env.read(range(600))
            .map(lambda v: {"v": v * 2}, name="double")
            .add_sink(sink, name="txn-sink"))
        return env.execute(), sink

    def test_commits_each_record_exactly_once(self, tmp_path):
        path = str(tmp_path / "out.jsonl")
        _, sink = self._run(path)
        assert read_lines(path) == ['{"v": %d}' % (v * 2)
                                    for v in range(600)]
        assert sink.transactions_committed >= 1
        assert_no_leftovers(path)

    def test_crash_after_the_first_checkpoint_changes_nothing(self, tmp_path):
        clean, crashed = (str(tmp_path / name)
                          for name in ("clean.jsonl", "crashed.jsonl"))
        self._run(clean)
        faults = FaultInjector([FaultEvent(CRASH, after_checkpoints=1)])
        job, _ = self._run(crashed, faults=faults,
                           restart_strategy=FixedDelayRestart(
                               max_restarts=3, delay_ms=0))
        assert faults.applied and job.restarts == 1
        with open(clean, "rb") as a, open(crashed, "rb") as b:
            assert a.read() == b.read()
        assert_no_leftovers(crashed)

    @pytest.mark.parametrize("parallelism", [2, 0])
    def test_parallel_transactional_sink_is_rejected(self, tmp_path,
                                                     parallelism):
        sink = TransactionalJsonlFileSink(str(tmp_path / "out.jsonl"))
        with pytest.raises(ValueError, match="parallelism 1"):
            Environment(parallelism=2).read(range(10)).add_sink(
                sink, parallelism=parallelism)


class TestResumeReconciliation:
    """A job deployed with state -- a respawned worker, a savepoint, time
    travel -- runs a sink object that never saw the transactions of the
    attempt that wrote the file.  The checkpoint carries them: restore
    truncates the target to the checkpoint's committed length and
    re-appends its pending transactions.  Respawns can themselves crash
    and respawn, so restoring the same checkpoint twice must leave the
    same file."""

    def _seeded(self, tmp_path):
        """A sink that committed txn 1 (["a", "b"]), pre-committed txn 2
        (["c"]) at checkpoint 2's cut and then 'crashed': the file and
        the checkpoint survive."""
        path = str(tmp_path / "out.txt")
        sink = TransactionalTextFileSink(path)
        sink.open()
        sink.write("a")
        sink.write("b")
        sink.pre_commit(1)
        sink.commit_through(1)
        sink.write("c")
        sink.pre_commit(2)
        return path, checkpointed(sink)

    def test_two_consecutive_respawns_do_not_double_commit(self, tmp_path):
        path, checkpoint = self._seeded(tmp_path)

        first = TransactionalTextFileSink(path)
        first.recover(checkpoint.operator_state)  # checkpoint 2 is durable: txn 2 commits
        assert read_lines(path) == ["a", "b", "c"]
        assert first.records_committed == 3

        # The respawn itself dies; a second respawn restores the same
        # checkpoint over a file that already holds txn 2.
        second = TransactionalTextFileSink(path)
        second.recover(checkpoint.operator_state)
        assert read_lines(path) == ["a", "b", "c"]
        assert second.records_committed == 3
        assert second.transactions_committed == 2
        assert second.snapshot()["pending"] == {}
        assert_only_target(path)

    def test_transaction_ids_may_start_over_after_a_savepoint(self, tmp_path):
        """A job resumed from a savepoint numbers its checkpoints from 1
        again, below the ids the previous job committed."""
        path, checkpoint = self._seeded(tmp_path)
        resumed = TransactionalTextFileSink(path)
        resumed.recover(checkpoint.operator_state)  # the savepoint's cut: txn 2 commits
        resumed.write("d")
        resumed.pre_commit(1)  # the new job's checkpoint 1 -- then a kill
        resumed_checkpoint = resumed.snapshot()

        respawned = TransactionalTextFileSink(path)
        respawned.recover(resumed_checkpoint)
        assert read_lines(path) == ["a", "b", "c", "d"]
        respawned.write("e")
        respawned.pre_commit(2)
        respawned.commit_through(2)
        assert read_lines(path) == ["a", "b", "c", "d", "e"]
        assert_only_target(path)

    def test_restore_truncates_a_torn_commit(self, tmp_path):
        # A process killed inside the append of txn 2 leaves part of it
        # at the end of the target; the restore cuts it off first.
        path, checkpoint = self._seeded(tmp_path)
        with open(path, "a") as handle:
            handle.write("c\nhalf a li")
        respawned = TransactionalTextFileSink(path)
        respawned.recover(checkpoint.operator_state)
        assert read_lines(path) == ["a", "b", "c"]
        assert_only_target(path)

    def test_restore_to_an_older_checkpoint_drops_later_commits(
            self, tmp_path):
        """Time travel into the same file: what was committed after the
        checkpoint goes, and replay writes it again."""
        path, checkpoint = self._seeded(tmp_path)
        later = TransactionalTextFileSink(path)
        later.recover(checkpoint.operator_state)
        for txn, line in ((3, "d"), (4, "e")):
            later.write(line)
            later.pre_commit(txn)
            later.commit_through(txn)
        assert read_lines(path) == ["a", "b", "c", "d", "e"]

        back = TransactionalTextFileSink(path)
        back.recover(checkpoint.operator_state)
        assert read_lines(path) == ["a", "b", "c"]
        assert back.records_committed == 3

    @pytest.mark.parametrize("damage", ["deleted", "shortened"])
    def test_restore_into_a_shorter_target_raises(self, tmp_path, damage):
        """Appending the checkpoint's pending lines to what is left would
        publish a file without its committed prefix."""
        path, checkpoint = self._seeded(tmp_path)
        if damage == "deleted":
            os.remove(path)
            size = 0
        else:
            os.truncate(path, 2)
            size = 2
        with pytest.raises(RuntimeError) as excinfo:
            TransactionalTextFileSink(path).recover(checkpoint.operator_state)
        message = str(excinfo.value)
        assert path in message
        assert "committed %d bytes" % checkpoint.operator_state["length"] in message
        assert "holds %d" % size in message
        assert (os.path.getsize(path) if os.path.exists(path) else 0) == size

    def test_open_truncates_the_target_to_its_header(self, tmp_path):
        path, _ = self._seeded(tmp_path)
        fresh = TransactionalTextFileSink(path)
        fresh.open()
        assert read_lines(path) == []

        csv_path = str(tmp_path / "out.csv")
        with open(csv_path, "w") as handle:
            handle.write("stale,header\nx,1\n")
        sink = TransactionalCsvFileSink(csv_path, header=["key", "value"])
        sink.open()
        assert read_lines(csv_path) == ["key,value"]
        assert sink.snapshot()["length"] == len("key,value\n")


class TestFormats:
    def test_jsonl_round_trip(self, tmp_path):
        import json
        path = str(tmp_path / "out.jsonl")
        sink = TransactionalJsonlFileSink(path)
        env = Environment(
            config=EngineConfig(checkpoint_interval_ms=5))
        (env.from_collection(range(5))
            .map(lambda v: {"value": v}, name="wrap")
            .add_sink(sink, name="jsonl-sink"))
        env.execute()
        assert [json.loads(line) for line in read_lines(path)] == [
            {"value": v} for v in range(5)]

    def test_csv_writes_header_and_validates_width(self, tmp_path):
        path = str(tmp_path / "out.csv")
        sink = TransactionalCsvFileSink(path, header=["key", "value"])
        env = Environment(
            config=EngineConfig(checkpoint_interval_ms=5))
        (env.from_collection([("a", 1), ("b", 2)])
            .add_sink(sink, name="csv-sink"))
        env.execute()
        assert read_lines(path) == ["key,value", "a,1", "b,2"]

        bad = TransactionalCsvFileSink(str(tmp_path / "bad.csv"),
                                       header=["only-one"])
        bad.open()
        with pytest.raises(ValueError, match="width"):
            bad.write(("too", "wide"))
