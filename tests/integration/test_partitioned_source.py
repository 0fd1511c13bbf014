"""Tests for the partitioned source: semantics, recovery, full-job
rescaling (sources included)."""

import multiprocessing

import pytest

from repro.api import Environment
from repro.connectors.partitioned import (
    PartitionedSource,
    partition_round_robin,
)
from repro.connectors.sinks import TransactionalJsonlFileSink
from repro.runtime.engine import EngineConfig
from repro.runtime.faults import CRASH, FaultEvent, FaultInjector
from repro.runtime.restart import FixedDelayRestart
from repro.testing.oracles import crash_once

KEYS = 5
DATA = [("k%d" % (index % KEYS), 1) for index in range(3000)]
PARTITIONS = 6


def true_counts():
    counts = {}
    for key, _ in DATA:
        counts[key] = counts.get(key, 0) + 1
    return counts


def pipeline(env, config_name="partitioned"):
    return (env.from_partitioned_source(
                partition_round_robin(DATA, PARTITIONS),
                name="kafka-like")
            .key_by(lambda v: v[0])
            .count(name="running-count")
            .collect(name="out"))


class TestBasics:
    def test_emits_every_partition_element(self):
        env = Environment(parallelism=2)
        result = env.from_partitioned_source(
            partition_round_robin(list(range(100)), 5)).collect()
        env.execute()
        assert sorted(result.get()) == list(range(100))

    def test_more_subtasks_than_partitions(self):
        env = Environment(parallelism=8)
        result = env.from_partitioned_source(
            partition_round_robin(list(range(40)), 3)).collect()
        env.execute()
        assert sorted(result.get()) == list(range(40))

    def test_timestamped_partitions(self):
        parts = [lambda: [("a", 10), ("b", 30)], lambda: [("c", 20)]]
        env = Environment()
        result = env.from_partitioned_source(
            parts, timestamped=True).collect(with_timestamps=True)
        env.execute()
        assert sorted(result.get()) == [("a", 10), ("b", 30), ("c", 20)]

    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionedSource([])
        with pytest.raises(ValueError):
            partition_round_robin([1], 0)


class TestRecovery:
    def test_crash_recovery_replays_per_partition(self):
        faults = FaultInjector([FaultEvent(
            CRASH, after_checkpoints=1, when=lambda view: view.rounds > 40)])
        env = Environment(
            parallelism=2,
            config=EngineConfig(checkpoint_interval_ms=5,
                                elements_per_step=4, faults=faults,
                                restart_strategy=FixedDelayRestart(
                                    max_restarts=3, delay_ms=0)))
        result = pipeline(env)
        job = env.execute()
        assert faults.applied and job.restarts == 1
        finals = {}
        for key, running in result.get():
            finals[key] = max(finals.get(key, 0), running)
        assert finals == true_counts()


class TestReplayInterleaving:
    """A replay must deal the partitions in the order of the first run:
    the round-robin position and the partitions already found drained
    are part of the cut, like the ``RebalancePartitioner`` cursor."""

    SIZES = (50, 300, 250)      # uneven: partitions drain mid-run

    def _committed(self, path, batch_size, elements_per_step, faults=None):
        partitions = [
            (lambda p=p, size=size: [p * 1000 + i for i in range(size)])
            for p, size in enumerate(self.SIZES)]
        env = Environment(
            parallelism=1,
            config=EngineConfig(checkpoint_interval_ms=5,
                                batch_size=batch_size,
                                elements_per_step=elements_per_step,
                                restart_strategy=FixedDelayRestart(
                                    max_restarts=3, delay_ms=0),
                                faults=faults))
        (env.from_partitioned_source(partitions)
         .map(lambda v: {"v": v})
         .add_sink(TransactionalJsonlFileSink(str(path))))
        job = env.execute()
        return path.read_bytes(), job

    @pytest.mark.parametrize("batch_size", [1, 64])
    def test_crash_sweep_is_byte_identical_to_the_unfaulted_run(
            self, tmp_path, batch_size):
        for elements_per_step in (4, 5, 7, 8):
            clean, _ = self._committed(tmp_path / "clean", batch_size,
                                       elements_per_step)
            assert len(clean.splitlines()) == sum(self.SIZES)
            for at_round in (20, 23, 31, 38, 45):
                faults = crash_once(1, at_round)
                replayed, job = self._committed(
                    tmp_path / "replayed", batch_size, elements_per_step,
                    faults=faults)
                assert faults.applied and job.restarts == 1
                assert replayed == clean, (
                    "replay dealt the partitions differently "
                    "(elements_per_step=%d, crash at round %d)"
                    % (elements_per_step, at_round))


class TestFullJobRescaling:
    """Savepoint + resume at different parallelism INCLUDING the source."""

    def _first_half(self, parallelism):
        def cancel(engine, rounds):
            return rounds >= 60 and len(engine.checkpoint_store) >= 1
        env = Environment(
            parallelism=parallelism,
            config=EngineConfig(checkpoint_interval_ms=5,
                                elements_per_step=4, cancel_hook=cancel))
        pipeline(env)
        assert env.execute().cancelled
        return env.last_engine.create_savepoint()

    def _second_half(self, parallelism, savepoint, backend="cooperative"):
        env = Environment(
            parallelism=parallelism,
            config=EngineConfig(backend=backend, num_workers=2,
                                elements_per_step=4))
        result = pipeline(env)
        env.execute(from_savepoint=savepoint)
        finals = {}
        for key, running in result.get():
            finals[key] = max(finals.get(key, 0), running)
        return finals

    def test_scale_source_up(self):
        savepoint = self._first_half(parallelism=2)
        assert self._second_half(3, savepoint) == true_counts()

    def test_scale_source_down(self):
        savepoint = self._first_half(parallelism=3)
        assert self._second_half(1, savepoint) == true_counts()

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="multiprocess backend requires the fork start method")
    @pytest.mark.parametrize("before, after", [(2, 3), (3, 1)])
    def test_rescaled_source_resumes_on_worker_processes(self, before,
                                                         after):
        savepoint = self._first_half(parallelism=before)
        assert self._second_half(after, savepoint,
                                 "multiprocess") == true_counts()

    def test_scale_beyond_partition_count(self):
        savepoint = self._first_half(parallelism=2)
        # 8 subtasks over 6 partitions: two subtasks own nothing.
        assert self._second_half(8, savepoint) == true_counts()
