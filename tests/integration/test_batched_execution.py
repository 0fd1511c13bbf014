"""Batched execution mode: record-for-record equivalence with scalar.

The batched fast path (RecordBatch channels, fused stateless chains,
vectorised partitioning) is purely a mechanical-sympathy optimisation:
every pipeline must produce *identical* output with ``batch_size=1`` and
``batch_size=n``, including under checkpointing, crash-replay, chaos
poison and quarantine.  These tests run representative pipelines in both
modes and diff the outputs exactly; the PR-2 differential oracles are
re-run under ``REPRO_BATCH_SIZE`` so the whole oracle battery covers the
batched engine too.
"""

import random

import pytest

from repro.api.environment import Environment
from repro.runtime.engine import EngineConfig, ExecutionConfig
from repro.testing.oracles import (
    DEFAULT_ORACLE_NAMES,
    make_crash_once_hook,
    make_oracle,
    run_streaming_windows,
)
from repro.testing.seeds import rng_for, root_seed

ROOT = root_seed(default=0)

BATCH_SIZES = [2, 7, 64]


def keyed_pipeline(config, data):
    env = Environment(config=config)
    result = (env.from_collection(data)
              .map(lambda x: x * 3)
              .filter(lambda x: x % 4 != 0)
              .flat_map(lambda x: [x, -x])
              .key_by(lambda x: abs(x) % 7)
              .reduce(lambda a, b: a + b)
              .collect())
    env.execute()
    return result.get()


class TestBatchedScalarEquivalence:
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_stateless_plus_keyed_pipeline(self, batch_size):
        data = list(range(200))
        scalar = keyed_pipeline(EngineConfig(batch_size=1), data)
        batched = keyed_pipeline(EngineConfig(batch_size=batch_size), data)
        # Ordered equality: batching must not reorder, drop or duplicate.
        assert batched == scalar

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_parallel_rebalanced_fused_stage(self, batch_size):
        # parallelism 2 forces real channels: rebalance into a fully
        # fused stateless stage, then a global edge into the sink --
        # exercising the round-robin and global batch routers.
        def run(config):
            env = Environment(parallelism=2, config=config)
            result = (env.from_collection(list(range(300)))
                      .rebalance()
                      .map(lambda x: x + 1)
                      .filter(lambda x: x % 3 != 0)
                      .global_()
                      .collect())
            env.execute()
            return result.get()

        # The global sink merges two upstream subtasks; batching changes
        # the fairness *granularity* of that merge (a whole batch per
        # poll), so cross-channel interleaving may differ while each
        # upstream's records stay in order -- compare as a multiset.
        assert (sorted(run(EngineConfig(batch_size=batch_size)))
                == sorted(run(EngineConfig(batch_size=1))))

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_windowed_aggregation_matches_scalar(self, parallelism):
        # Disorder bounded by the watermark strategy's slack: no record
        # is ever late, which is the regime where window contents are
        # independent of cross-channel merge interleaving.
        rng = random.Random(ROOT)
        elements = [("k%d" % rng.randrange(4), rng.randrange(100),
                     index * 3 + rng.randrange(0, 9))
                    for index in range(250)]
        assigner = {"kind": "sliding", "size": 40, "slide": 20}
        scalar, _ = run_streaming_windows(
            elements, assigner, "sum", ooo_bound=10,
            parallelism=parallelism, config=EngineConfig(batch_size=1))
        batched, _ = run_streaming_windows(
            elements, assigner, "sum", ooo_bound=10,
            parallelism=parallelism, config=EngineConfig(batch_size=32))
        assert batched == scalar

    def test_single_channel_sequences_are_bit_identical(self):
        # At parallelism 1 every channel is a single FIFO, where batching
        # guarantees the *exact* element sequence -- even wildly
        # out-of-order input with late drops must come out identical.
        rng = random.Random(ROOT + 3)
        elements = [("k%d" % rng.randrange(4), rng.randrange(100),
                     rng.randrange(0, 500)) for _ in range(250)]
        assigner = {"kind": "sliding", "size": 40, "slide": 20}
        scalar, _ = run_streaming_windows(
            elements, assigner, "sum", ooo_bound=10,
            parallelism=1, config=EngineConfig(batch_size=1))
        batched, _ = run_streaming_windows(
            elements, assigner, "sum", ooo_bound=10,
            parallelism=1, config=EngineConfig(batch_size=32))
        assert batched == scalar

    def test_execution_config_is_engine_config(self):
        assert ExecutionConfig is EngineConfig


class TestReplayDeterminismAcrossModes:
    @pytest.mark.parametrize("batch_size", [1, 16])
    def test_crash_replay_is_identical_in_both_modes(self, batch_size):
        """Exactly-once recovery must be bit-identical whether records
        travelled as scalars or batches: batches split at barrier
        boundaries, so the checkpoint cut sees the same prefix."""
        rng = random.Random(ROOT + 1)
        elements = [("k%d" % rng.randrange(3), rng.randrange(50),
                     ts * 7) for ts in range(120)]
        assigner = {"kind": "tumbling", "size": 50}

        clean_config = EngineConfig(checkpoint_interval_ms=5,
                                    elements_per_step=4,
                                    batch_size=batch_size)
        clean, clean_job = run_streaming_windows(
            elements, assigner, "sum", ooo_bound=5, config=clean_config)

        hook = make_crash_once_hook(min_checkpoints=1,
                                    at_round=max(5, clean_job.rounds // 2))
        crash_config = EngineConfig(checkpoint_interval_ms=5,
                                    elements_per_step=4,
                                    batch_size=batch_size,
                                    failure_hook=hook)
        replayed, _ = run_streaming_windows(
            elements, assigner, "sum", ooo_bound=5, config=crash_config)

        assert hook.state["fired"]
        assert set(replayed.items()) == set(clean.items())

    def test_scalar_and_batched_crash_replay_agree(self):
        rng = random.Random(ROOT + 2)
        elements = [("k%d" % rng.randrange(3), rng.randrange(50),
                     ts * 7) for ts in range(120)]
        assigner = {"kind": "tumbling", "size": 50}
        results = {}
        for batch_size in (1, 16):
            hook = make_crash_once_hook(min_checkpoints=1, at_round=30)
            config = EngineConfig(checkpoint_interval_ms=5,
                                  elements_per_step=4,
                                  batch_size=batch_size,
                                  failure_hook=hook)
            results[batch_size], _ = run_streaming_windows(
                elements, assigner, "sum", ooo_bound=5, config=config)
        assert results[16] == results[1]


class TestQuarantineUnderBatching:
    @staticmethod
    def _run(config, data, poison):
        env = Environment(config=config)

        def toxic(x):
            if x in poison:
                raise ValueError("poison %d" % x)
            return x * 2

        result = (env.from_collection(data)
                  .rebalance()          # break the source chain: real batches
                  .map(toxic)
                  .filter(lambda x: x % 3 != 0)
                  .global_()
                  .collect())
        job = env.execute()
        return result.get(), sorted(letter.value
                                    for letter in job.dead_letters)

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_fused_chain_quarantines_identically(self, batch_size):
        data = list(range(100))
        poison = {13, 14, 77}
        scalar_out, scalar_dead = self._run(
            EngineConfig(quarantine_threshold=10, batch_size=1),
            data, poison)
        batched_out, batched_dead = self._run(
            EngineConfig(quarantine_threshold=10, batch_size=batch_size),
            data, poison)
        assert batched_out == scalar_out
        assert batched_dead == scalar_dead == [13, 14, 77]


class TestOperatorProfiling:
    def test_counters_and_inclusive_time(self):
        env = Environment(config=EngineConfig(
            batch_size=8, operator_profiling=True))
        result = (env.from_collection(list(range(60)))
                  .map(lambda x: x + 1)
                  .filter(lambda x: x % 2 == 0)
                  .collect())
        env.execute()
        assert len(result.get()) == 30
        stats = {s.name: s for s in env.last_engine.operator_stats()}
        assert stats["map"].records_in == 60
        assert stats["map"].records_out == 60
        assert stats["filter"].records_in == 60
        assert stats["filter"].records_out == 30
        assert stats["collect"].records_in == 30
        assert stats["map"].time_ns > 0

    def test_batches_counted_across_a_channel(self):
        env = Environment(parallelism=1, config=EngineConfig(
            batch_size=8, operator_profiling=True))
        result = (env.from_collection(list(range(64)))
                  .rebalance()          # real channel: batches on the wire
                  .map(lambda x: x + 1)
                  .collect())
        env.execute()
        assert len(result.get()) == 64
        stats = {s.name: s for s in env.last_engine.operator_stats()}
        assert stats["map"].records_in == 64
        assert stats["map"].batches >= 1
        # One batch is never double-counted by the per-record default
        # looping into the wrapped process().
        assert stats["map"].records_in == stats["map"].records_out


class TestOraclesUnderBatching:
    """The PR-2 differential oracle battery, re-run with batching forced
    on through the REPRO_BATCH_SIZE environment knob."""

    @pytest.mark.parametrize("oracle_name", DEFAULT_ORACLE_NAMES)
    def test_oracle_passes_batched(self, oracle_name, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_SIZE", "16")
        oracle = make_oracle(oracle_name)
        for index in range(4):
            rng = rng_for(ROOT, oracle.name, index)
            case = oracle.generate(rng, ROOT, index)
            mismatch = oracle.check(case)
            assert mismatch is None, "%s\n%s" % (case.seed_line, mismatch)

    def test_oracle_output_identical_scalar_vs_batched(self, monkeypatch):
        """Stronger than 'both pass': the windows oracle's streaming run
        must produce byte-identical result dicts in both modes."""
        oracle = make_oracle("windows")
        rng = rng_for(ROOT, oracle.name, 0)
        case = oracle.generate(rng, ROOT, 0)
        params = case.params
        outputs = {}
        for size in ("1", "16"):
            monkeypatch.setenv("REPRO_BATCH_SIZE", size)
            outputs[size], _ = run_streaming_windows(
                list(case.stream), params["assigner"], params["aggregate"],
                params["ooo_bound"], params.get("parallelism", 2))
        assert outputs["16"] == outputs["1"]
