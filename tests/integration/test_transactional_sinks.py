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


def read_lines(path):
    with open(path) as handle:
        return handle.read().splitlines()


def assert_no_leftovers(path):
    assert not os.path.exists(path + ".tmp")
    assert glob.glob(glob.escape(path) + ".pending-*") == []


class TestTwoPhaseCommitProtocol:
    """Driving the sink by hand, without an engine."""

    def test_pre_commit_persists_sideways_then_commit_publishes(self, tmp_path):
        path = str(tmp_path / "out.txt")
        sink = TransactionalTextFileSink(path)
        sink.open()
        sink.write("a")
        sink.write("b")
        assert read_lines(path) == []  # buffered, nothing visible

        sink.pre_commit(1)
        assert read_lines(path) == []  # pre-committed, still not visible
        assert read_lines(path + ".pending-1") == ["a", "b"]

        sink.commit_through(1)
        assert read_lines(path) == ["a", "b"]
        assert_no_leftovers(path)
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
        sink.write("after-cut")
        sink.pre_commit(2)
        sink.write("in-buffer")
        # The restored checkpoint only knew about txn 1: txn 2 and the
        # open buffer lie beyond the replay point and must vanish.
        sink.recover([1])
        assert read_lines(path) == ["durable"]
        assert sink.pending_transactions() == []
        assert_no_leftovers(path)


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
        assert job.recoveries == 1
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
        job, _ = self._run(crashed, faults=faults)
        assert faults.applied and job.recoveries == 1
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
    """The multiprocess failure domain: the sink *object* dies with its
    worker and a fresh fork reattaches to the on-disk artifacts via
    ``resume()``.  Respawns can themselves crash and respawn, so resume
    + recover must be idempotent over the same artifacts -- and must
    close the crash windows inside ``commit_through`` (meta written but
    target unpublished; target published but side files undeleted)."""

    def _seeded_sink(self, tmp_path):
        """A sink that committed txn 1 (["a", "b"]) and holds txn 2
        (["c"]) pre-committed, then 'crashed' -- only disk survives."""
        path = str(tmp_path / "out.txt")
        sink = TransactionalTextFileSink(path)
        sink.open()
        sink.write("a")
        sink.write("b")
        sink.pre_commit(1)
        sink.commit_through(1)
        sink.write("c")
        sink.pre_commit(2)
        return path

    def test_two_consecutive_respawns_do_not_double_commit(self, tmp_path):
        path = self._seeded_sink(tmp_path)

        first = TransactionalTextFileSink(path)
        first.resume()
        first.recover([2])  # checkpoint knew txn 2 was pending: commit it
        assert read_lines(path) == ["a", "b", "c"]
        assert first.records_committed == 3

        # The respawn itself dies; a second respawn walks the same
        # artifacts.  Txn 2's side file is gone and meta says it is
        # committed, so nothing may commit twice.
        second = TransactionalTextFileSink(path)
        second.resume()
        second.recover([2])
        assert read_lines(path) == ["a", "b", "c"]
        assert second.records_committed == 3
        assert second.pending_transactions() == []
        assert_no_leftovers(path)

    def test_transaction_ids_may_start_over_after_a_savepoint(self, tmp_path):
        """A job resumed from a savepoint numbers its checkpoints from 1
        again.  Its first pre-committed transaction must not read as
        "already published" to a respawn because the previous job's
        committed-through mark was higher."""
        path = self._seeded_sink(tmp_path)
        resumed = TransactionalTextFileSink(path)
        resumed.resume()
        resumed.recover([2])  # the savepoint's cut: txn 2 commits
        resumed.write("d")
        resumed.pre_commit(1)  # the new job's checkpoint 1 -- then a kill

        respawned = TransactionalTextFileSink(path)
        respawned.resume()
        assert respawned.pending_transactions() == [1]
        respawned.recover([1])
        assert read_lines(path) == ["a", "b", "c", "d"]
        assert_no_leftovers(path)

    def test_resume_after_crash_between_meta_and_publish(self, tmp_path):
        """Window A: meta recorded the commit but the process died
        before the target was rewritten.  The side files at or below
        committed_through hold the missing records."""
        path = self._seeded_sink(tmp_path)
        sink = TransactionalTextFileSink(path)
        sink.resume()
        # Simulate the torn commit by hand: meta + side file say txn 2
        # committed, target still shows only txn 1.
        sink._committed_through = 2
        sink._committed.append("c")
        sink._write_meta()
        sink._committed.pop()

        respawned = TransactionalTextFileSink(path)
        respawned.resume()
        assert read_lines(path) == ["a", "b", "c"]  # re-applied + published
        assert respawned.records_committed == 3
        assert respawned.pending_transactions() == []
        assert_no_leftovers(path)

    def test_resume_after_crash_between_publish_and_side_cleanup(
            self, tmp_path):
        """Window B: the target was published but the process died
        before deleting the side files.  They describe already-committed
        transactions and must be swept, never re-committed."""
        path = self._seeded_sink(tmp_path)
        sink = TransactionalTextFileSink(path)
        sink.resume()
        sink.recover([2])
        assert read_lines(path) == ["a", "b", "c"]
        # Resurrect txn 2's side file as the crash would have left it.
        with open(path + ".pending-2", "w") as handle:
            handle.write("c\n")

        respawned = TransactionalTextFileSink(path)
        respawned.resume()
        assert read_lines(path) == ["a", "b", "c"]  # not ["a","b","c","c"]
        assert respawned.pending_transactions() == []
        assert_no_leftovers(path)
        # Even a replayed commit notification cannot double it.
        respawned.recover([2])
        assert read_lines(path) == ["a", "b", "c"]

    def test_resume_keeps_uncommitted_side_files_pending(self, tmp_path):
        path = self._seeded_sink(tmp_path)
        sink = TransactionalTextFileSink(path)
        sink.resume()
        assert sink.pending_transactions() == [2]
        # A restore whose checkpoint predates txn 2 aborts it instead.
        sink.recover([])
        assert read_lines(path) == ["a", "b"]
        assert_no_leftovers(path)

    def test_resume_discards_a_torn_pre_commit(self, tmp_path):
        # A worker killed inside pre_commit leaves the side file's
        # ".tmp" behind; it matches the side-file glob and used to make
        # every respawn die parsing "3.tmp" as a transaction id.
        path = self._seeded_sink(tmp_path)
        torn = path + ".pending-3.tmp"
        with open(torn, "w") as handle:
            handle.write("half a li")
        sink = TransactionalTextFileSink(path)
        sink.resume()
        assert sink.pending_transactions() == [2]
        assert not os.path.exists(torn)

    def test_open_wipes_meta_with_the_other_artifacts(self, tmp_path):
        path = self._seeded_sink(tmp_path)
        assert os.path.exists(path + ".txn-meta.json")
        fresh = TransactionalTextFileSink(path)
        fresh.open()
        assert not os.path.exists(path + ".txn-meta.json")
        assert read_lines(path) == []


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
