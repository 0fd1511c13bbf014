"""Batched execution mode: record-for-record equivalence with scalar.

The batched fast path (RecordBatch channels, fused stateless chains,
vectorised partitioning) is purely a mechanical-sympathy optimisation:
every pipeline must produce *identical* output with ``batch_size=1`` and
``batch_size=n``, including under checkpointing, crash-replay, chaos
poison and quarantine.  These tests run representative pipelines in both
modes and diff the outputs exactly; the differential oracles are re-run
on a batched deployment so the whole oracle battery covers the batched
engine too.
"""

import importlib
import os
import random

import pytest

from repro.api.environment import Environment
from repro.connectors import TransactionalJsonlFileSink
from repro.connectors.partitioned import PartitionedSource
from repro.connectors.sources import HybridSource
from repro.observability import MetricGroup
from repro.runtime.channels import Channel
from repro.runtime.columnar import batch_to_columnar
from repro.runtime.elements import END_OF_STREAM, Record, RecordBatch
from repro.runtime.engine import EngineConfig
from repro.runtime.faults import CRASH, FaultEvent, FaultInjector
from repro.runtime.operators import (
    CoProcessOperator,
    FilterOperator,
    FlatMapOperator,
    IteratorSource,
    MapOperator,
    Operator,
    ReplayCursor,
    SourceOperator,
    TimestampsAndWatermarksOperator,
)
from repro.runtime import partition
from repro.runtime.partition import ForwardPartitioner, HashPartitioner
from repro.runtime.restart import FixedDelayRestart
from repro.runtime.task import ColumnRun, OutputEdge, Task
from repro.testing.deployment import Deployment
from repro.testing.oracles import (
    DEFAULT_ORACLE_NAMES,
    crash_once,
    make_oracle,
    run_streaming_windows,
)
from repro.testing.seeds import rng_for, root_seed
from repro.time import WatermarkStrategy
from repro.time.clock import ManualClock
from repro.windowing import CountAggregate, TumblingEventTimeWindows
from repro.windowing.windows import TimeWindow

ROOT = root_seed(default=0)

BATCH_SIZES = [2, 7, 64]


class _IdentityKey:
    """Hashes by address: different in every interpreter run."""


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

    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize("batch_size", [1, 64])
    @pytest.mark.parametrize("make_key", [lambda x: _IdentityKey(), lambda x: [x]],
                             ids=["identity-hashed", "unhashable"])
    def test_unroutable_keys_are_rejected_in_every_configuration(
            self, make_key, batch_size, parallelism):
        # A batched hash edge with one channel used to skip hash_key and
        # build keyed state that could not be rescaled.
        env = Environment(parallelism=parallelism,
                          config=EngineConfig(batch_size=batch_size))
        (env.from_collection(list(range(10)))
         .key_by(make_key).reduce(lambda a, b: a).collect())
        with pytest.raises(TypeError,
                           match="cannot hash-partition key of type"):
            env.execute()


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

        faults = crash_once(min_checkpoints=1,
                            at_round=max(5, clean_job.rounds // 2))
        crash_config = EngineConfig(checkpoint_interval_ms=5,
                                    elements_per_step=4,
                                    batch_size=batch_size,
                                    faults=faults)
        replayed, _ = run_streaming_windows(
            elements, assigner, "sum", ooo_bound=5, config=crash_config)

        assert faults.applied
        assert set(replayed.items()) == set(clean.items())

    def test_scalar_and_batched_crash_replay_agree(self):
        rng = random.Random(ROOT + 2)
        elements = [("k%d" % rng.randrange(3), rng.randrange(50),
                     ts * 7) for ts in range(120)]
        assigner = {"kind": "tumbling", "size": 50}
        results = {}
        for batch_size in (1, 16):
            config = EngineConfig(checkpoint_interval_ms=5,
                                  elements_per_step=4,
                                  batch_size=batch_size,
                                  faults=crash_once(min_checkpoints=1,
                                                    at_round=30))
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
    """``job_report()["operators"]`` is the per-subtask profile: records
    in and out of every task, with the fused chain inside it."""

    def test_counters_per_subtask(self):
        env = Environment(parallelism=1, config=EngineConfig(batch_size=8))
        result = (env.from_collection(list(range(60)))
                  .rebalance()
                  .map(lambda x: x + 1)
                  .rebalance()
                  .filter(lambda x: x % 2 == 0)
                  .rebalance()
                  .collect())
        env.execute()
        assert len(result.get()) == 30
        counts = {row["operator"]: (row["records_in"], row["records_out"])
                  for row in env.job_report()["operators"]}
        assert counts == {"collection-source": (0, 60), "map": (60, 60),
                          "filter": (60, 30), "collect": (30, 0)}

    def test_batches_counted_across_a_channel(self):
        env = Environment(parallelism=1, config=EngineConfig(
            batch_size=8, observability=True))
        result = (env.from_collection(list(range(64)))
                  .rebalance()          # real channel: batches on the wire
                  .map(lambda x: x + 1)
                  .collect())
        env.execute()
        assert len(result.get()) == 64
        report = env.job_report()
        counts = {row["operator"]: (row["records_in"], row["records_out"])
                  for row in report["operators"]}
        assert counts == {"collection-source": (0, 64),
                          "map -> collect": (64, 0)}
        # Batches, not records, crossed the channel: the map ran its
        # fused prefix once per batch, and counted each record once.
        assert 1 <= report["spans"]["by_name"]["fused_batch"] < 64


class TestOraclesUnderBatching:
    """The differential oracle battery, re-run on a batched deployment."""

    @pytest.mark.parametrize("oracle_name", DEFAULT_ORACLE_NAMES)
    def test_oracle_passes_batched(self, oracle_name):
        oracle = make_oracle(oracle_name)
        for index in range(4):
            rng = rng_for(ROOT, oracle.name, index)
            case = oracle.generate(rng, ROOT, index)
            if oracle.runs_engine:
                case = oracle.deploy(case, Deployment(batch_size=16))
            mismatch = oracle.check(case)
            assert mismatch is None, "%s\n%s" % (case.seed_line, mismatch)

    def test_replay_oracle_with_every_source_step_one_run(self):
        """A batch size above the oracle's step budget: each source step
        goes through the watermark operator as one run, and every
        barrier -- the crash restores from one -- lands between two."""
        oracle = make_oracle("replay")
        for index in range(4, 12):
            rng = rng_for(ROOT, oracle.name, index)
            case = oracle.deploy(oracle.generate(rng, ROOT, index),
                                 Deployment(batch_size=64))
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


# -- the source chain, element by element ---------------------------------------


def channel_elements(channel):
    """What a channel holds, batches unpacked: the sequence a consumer
    observes, whatever the producer's batching was."""
    out = []
    for element in channel._queue:
        if element.is_batch:
            out.extend(("record", r.value, r.timestamp, r.key)
                       for r in element.records)
        elif element.is_record:
            out.append(("record", element.value, element.timestamp,
                        element.key))
        elif element.is_watermark:
            out.append(("watermark", element.timestamp))
        elif element.is_barrier:
            out.append(("barrier", element.checkpoint_id))
        else:
            assert element.is_end
            out.append(("end",))
    return out


def drive_source_task(operators, batch_size, elements_per_step=8,
                      barrier_steps=(), channels=2, restore=None,
                      recover_at=()):
    """Step one hand-built source task to its end with a hash edge of
    ``channels`` channels behind it; a checkpoint is pending at the
    start of every step in ``barrier_steps``, and at the start of every
    step in ``recover_at`` the task is restored in place from its latest
    snapshot (what ``Engine.recover`` does to it; the channels keep what
    already left).  Returns the per-channel element sequences, the
    snapshots by checkpoint id, and the task."""
    task = Task("source", 0, 0, 1, operators, ManualClock(),
                MetricGroup("test"), elements_per_step=elements_per_step,
                batch_size=batch_size)
    outputs = [Channel("out-%d" % index, capacity=1 << 30)
               for index in range(channels)]
    task.add_output_edge(OutputEdge(
        HashPartitioner(lambda value: value[0]), outputs, 0))
    snapshots = {}
    task.checkpoint_ack = snapshots.__setitem__
    task.open()
    if restore is not None:
        task.restore(restore)
    step = 0
    while not task.finished:
        if step in recover_at:
            task.reset_progress()
            task.restore(snapshots[max(snapshots)])
        if step in barrier_steps:
            task.pending_checkpoint = step + 1
        task.step()
        step += 1
        assert step < 10_000
    return [channel_elements(channel) for channel in outputs], snapshots, task


GENERATORS = {
    "bounded": lambda: WatermarkStrategy.for_bounded_out_of_orderness(
        lambda value: value[2], 5),
    "monotonic": lambda: WatermarkStrategy.for_monotonic_timestamps(
        lambda value: value[2]),
    "punctuated": lambda: WatermarkStrategy.for_punctuated(
        lambda value: value[2], lambda value: value[1] % 5 == 0),
}


class MixedSource(SourceOperator):
    """Hands each step over as a single, a run of two, of three, of
    four, a single, ...: ``collect`` and ``collect_batch`` in one step."""

    def __init__(self, factory):
        super().__init__()
        self._factory = factory

    def open(self, ctx):
        super().open(ctx)
        self._cursor = ReplayCursor(self._factory)

    def emit_batch(self, source_ctx, max_records):
        chunk = self._cursor.take(max_records)
        position, width = 0, 1
        while position < len(chunk):
            if width == 1:
                source_ctx.collect(chunk[position])
            else:
                source_ctx.collect_batch(chunk[position:position + width])
            position += width
            width = width % 4 + 1
        return not self._cursor.exhausted

    def snapshot_state(self):
        return {"offset": self._cursor.offset}

    def restore_state(self, state):
        self._cursor.rewind(state["offset"])


class RowsOnly(Operator):
    """Stateless, but without a batch transform or a column kernel:
    columns end in front of it."""

    def process(self, record):
        self.ctx.emit_record(record)


def _hybrid_halves(elements):
    """History and stream overlap around the cutover, which lies in the
    middle of the event times: both sides drop records at the seam."""
    half = len(elements) // 2
    return (elements[:half + half // 3], elements[half - half // 3:],
            sorted(e[2] for e in elements)[half] if elements else 0)


#: ``elements -> [source]`` for every replayable source kind; all emit
#: their steps through ``SourceOperator._emit_run`` but ``mixed``.
SOURCES = {
    "iterator": lambda elements: IteratorSource(lambda: elements),
    "timestamped": lambda elements: IteratorSource(
        lambda: [(e, e[2]) for e in elements], timestamped=True),
    "hybrid": lambda elements: HybridSource(
        lambda: _hybrid_halves(elements)[0],
        lambda: _hybrid_halves(elements)[1],
        cutover=_hybrid_halves(elements)[2],
        timestamp_fn=lambda value: value[2], history_burst=4),
    "partitioned": lambda elements: PartitionedSource(
        [(lambda part=elements[start::3]: part) for start in range(3)]),
    "mixed": lambda elements: MixedSource(lambda: elements),
}

SUFFIXES = ["none", "map-filter", "flat-map", "drops-runs", "rows"]


def source_chain(elements, generator="bounded", poll_every=1,
                 suffix="map-filter", source="iterator"):
    """``source -> timestamps/watermarks -> suffix`` over ``(key, value,
    ts)`` elements, as fresh operator instances (a ``timestamped``
    source has no watermark operator behind it)."""
    operators = [SOURCES[source](elements)]
    if source != "timestamped":
        operators.append(TimestampsAndWatermarksOperator(
            GENERATORS[generator](), poll_every=poll_every))
    if suffix == "rows":
        # Rows from here on; the map and the filter behind it are still
        # the fused suffix.
        operators.append(RowsOnly())
    if suffix in ("map-filter", "flat-map", "rows"):
        operators.append(MapOperator(lambda v: (v[0], v[1] * 2, v[2])))
        operators.append(FilterOperator(lambda v: v[1] % 3 != 1))
    if suffix == "flat-map":
        operators.append(FlatMapOperator(
            lambda v: [v] * (abs(v[1]) % 3)))
    if suffix == "drops-runs":
        # Drops every record of whole stretches of the input.
        operators.append(FilterOperator(lambda v: (v[2] // 40) % 2 == 0))
    return operators


def keyed_elements(rng, count):
    return [("k%d" % rng.randrange(5), rng.randrange(-50, 50),
             index * 2 - rng.randrange(0, 9)) for index in range(count)]


class TestSourceChainElementSequence:
    """A batched source task carries its runs as columns -- through the
    watermark operator, through its stateless suffix fused into a
    column kernel -- and builds the records at the output edge; every
    output channel must still carry exactly the records, watermarks and
    barriers of the scalar run, in order."""

    @pytest.mark.parametrize("suffix", ["none", "map-filter", "flat-map",
                                        "drops-runs"])
    @pytest.mark.parametrize("poll_every", [1, 7])
    @pytest.mark.parametrize("generator", sorted(GENERATORS))
    def test_sequence_parity(self, generator, poll_every, suffix):
        elements = keyed_elements(rng_for(ROOT, "source-chain", generator,
                                          poll_every, suffix), 300)
        barriers = (0, 3, 4, 11, 30)
        scalar, _, _ = drive_source_task(
            source_chain(elements, generator, poll_every, suffix), 1,
            barrier_steps=barriers)
        assert any(kind == "watermark" for kind, *_ in scalar[0])
        for batch_size in (2, 5, 64):
            batched, _, task = drive_source_task(
                source_chain(elements, generator, poll_every, suffix),
                batch_size, barrier_steps=barriers)
            assert batched == scalar
            assert (task._suffix_fn is not None) == (suffix != "none")

    @pytest.mark.parametrize("suffix", SUFFIXES)
    @pytest.mark.parametrize("source", sorted(SOURCES))
    def test_column_path_parity(self, source, suffix):
        """Every source kind x every suffix shape: the runs travel as
        columns up to the hash edge (or up to the first operator that
        needs rows), and each channel still carries the scalar run's
        ``(value, timestamp, key)`` records, watermarks and barriers --
        with barriers between two runs."""
        elements = keyed_elements(rng_for(ROOT, "column-path", source,
                                          suffix), 300)
        barriers = (0, 3, 4, 11, 30)

        def drive(batch_size, **kwargs):
            return drive_source_task(
                source_chain(elements, "bounded", 7, suffix, source),
                batch_size, barrier_steps=barriers, **kwargs)

        scalar, _, scalar_task = drive(1)
        assert sum(map(record_count, scalar)) > 50
        assert all(("barrier", 12) in channel for channel in scalar)
        assert isinstance(scalar_task._out_buffer, list)
        for batch_size in (2, 5, 64, 1024):
            batched, _, task = drive(batch_size)
            assert batched == scalar
            assert isinstance(task._out_buffer, ColumnRun)
            assert (task._suffix_fn is not None) == (suffix != "none")
            # A run is handed on as columns up to the fused suffix; an
            # operator without ``process_columns`` of its own builds the
            # rows it needs.
            fused = {"none": 0, "map-filter": 2, "flat-map": 3,
                     "drops-runs": 1, "rows": 2}[suffix]
            assert ["emit_columns" in vars(chained.ctx)
                    for chained in task.chain] == (
                [True] * (len(task.chain) - fused) + [False] * fused)

    def test_timestamped_collection_enters_the_run_path(self):
        pairs = [((("k%d" % (index % 3)), index, index), index)
                 for index in range(100)]

        def operators():
            return [IteratorSource(lambda: pairs, timestamped=True),
                    MapOperator(lambda v: (v[0], v[1] + 1, v[2]))]

        scalar, _, _ = drive_source_task(operators(), 1)
        batched, _, _ = drive_source_task(operators(), 16)
        assert batched == scalar
        assert sorted(element[2] for channel in scalar for element in channel
                      if element[0] == "record") == list(range(100))

    def test_cutover_watermark_leaves_behind_the_history_records(self):
        """The seam watermark comes from the source itself, with history
        records still waiting in front of the fused suffix."""
        cutover = 99
        history = [("k%d" % (index % 4), index, index)
                   for index in range(120)]          # 100..119 overlap
        live = [("k%d" % (index % 4), index, index)
                for index in range(90, 200)]          # 90..99 overlap

        def operators():
            return [HybridSource(lambda: history, lambda: live,
                                 cutover=cutover,
                                 timestamp_fn=lambda value: value[2],
                                 history_burst=4),
                    MapOperator(lambda v: (v[0], v[1] * 2, v[2])),
                    FilterOperator(lambda v: v[1] % 3 != 1)]

        scalar, _, _ = drive_source_task(operators(), 1,
                                         barrier_steps=(1, 6))
        batched, _, task = drive_source_task(operators(), 64,
                                             barrier_steps=(1, 6))
        assert task._suffix_fn is not None
        assert batched == scalar
        for channel in batched:
            seam = channel.index(("watermark", cutover))
            assert all(element[1][2] <= cutover
                       for element in channel[:seam]
                       if element[0] == "record")
            assert all(element[1][2] > cutover
                       for element in channel[seam:]
                       if element[0] == "record")

    @pytest.mark.parametrize("batch_size", [1, 64])
    def test_restore_from_a_barrier_between_two_runs(self, batch_size):
        """The cut a source takes lies between two runs: a task restored
        from it emits exactly what the first task emitted behind the
        barrier (watermarks at or below the restored high-water mark are
        not repeated -- downstream has them)."""
        elements = keyed_elements(rng_for(ROOT, "source-chain-restore"), 200)
        whole, snapshots, _ = drive_source_task(
            source_chain(elements), batch_size, barrier_steps=(9,))
        resumed, _, _ = drive_source_task(
            source_chain(elements), batch_size, restore=snapshots[10])
        for before, after in zip(whole, resumed):
            assert after == before[before.index(("barrier", 10)) + 1:]

    def test_profiling_counts_equal_the_scalar_runs(self):
        elements = keyed_elements(rng_for(ROOT, "source-chain-profile"), 200)

        def counts(batch_size):
            _, _, task = drive_source_task(
                source_chain(elements, suffix="flat-map"), batch_size)
            return {name: task.metrics.counters()[name]
                    for name in ("records_in", "records_out")}

        # The suffix maps v -> 2v, keeps 2v % 3 != 1, repeats |2v| % 3.
        survivors = sum(abs(2 * value) % 3 for _, value, _ in elements
                        if 2 * value % 3 != 1)
        assert counts(64) == counts(1)
        assert counts(1)["records_out"] == survivors


# -- recovery and the quarantine rule on a source chain that runs on columns ------


class TestSourceChainRecovery:
    def test_reset_progress_drops_an_unflushed_column_run(self):
        elements = keyed_elements(rng_for(ROOT, "column-reset"), 120)
        clean, _, _ = drive_source_task(source_chain(elements), 64)
        task = Task("source", 0, 0, 1, source_chain(elements), ManualClock(),
                    MetricGroup("test"), elements_per_step=8, batch_size=64)
        outputs = [Channel("out-%d" % index, capacity=1 << 30)
                   for index in range(2)]
        task.add_output_edge(OutputEdge(
            HashPartitioner(lambda value: value[0]), outputs, 0))
        task.open()
        # A run and a single that the failed attempt never flushed.
        task.chain[1].ctx.emit_columns(
            [("ghost", 1, 1)] * 3, [1, 1, 1], [None] * 3)
        task.chain[1].ctx.emit_record(Record(("ghost", 2, 2), 2))
        assert len(task._out_buffer) == 4
        task.reset_progress()
        assert isinstance(task._out_buffer, ColumnRun)
        assert len(task._out_buffer) == 0
        while not task.finished:
            task.step()
        assert [channel_elements(channel) for channel in outputs] == clean

    @staticmethod
    def windowed_counts(tmp_path, batch_size, faulty):
        """``source -> watermarks -> map -> filter -> key_by -> window ->
        2PC sink``; the faulty run's map raises once in the middle of a
        source run and chaos fails a subtask between two source steps."""
        path = str(tmp_path / ("%s-%d.jsonl" % (faulty, batch_size)))
        raised = [not faulty]

        def flaky(value):
            if value[1] == 333 and not raised[0]:
                raised[0] = True
                raise RuntimeError("transient")
            return value

        env = Environment(parallelism=2, config=EngineConfig(
            checkpoint_interval_ms=5, elements_per_step=16,
            batch_size=batch_size,
            restart_strategy=FixedDelayRestart(max_restarts=5, delay_ms=1),
            faults=(FaultInjector([FaultEvent(
                CRASH, when=lambda view: view.rounds >= 40)])
                    if faulty else None)))
        (env.from_collection([("k%d" % (i % 7), i) for i in range(1400)])
         .assign_timestamps_and_watermarks(
             WatermarkStrategy.for_bounded_out_of_orderness(
                 lambda value: value[1], 5))
         .map(flaky)
         .filter(lambda value: value[1] % 5 != 0)
         .key_by(lambda value: value[0])
         .window(TumblingEventTimeWindows.of(100))
         .aggregate(CountAggregate())
         .add_sink(TransactionalJsonlFileSink(path)))
        job = env.execute()
        with open(path, "r", encoding="utf-8") as handle:
            return sorted(handle), job

    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_a_raising_suffix_and_a_subtask_failure_recover_exactly_once(
            self, tmp_path, batch_size):
        clean, clean_job = self.windowed_counts(tmp_path, batch_size, False)
        assert len(clean) == 98 and clean_job.restarts == 0
        recovered, job = self.windowed_counts(tmp_path, batch_size, True)
        assert job.restarts == 2 and job.checkpoints_completed >= 1
        assert recovered == clean

    @pytest.mark.parametrize("batch_size", [1, 64])
    def test_quarantine_guards_the_task_input_boundary(self, batch_size):
        """docs/fault_tolerance.md: a UDF chained into the source fails
        the task with its own exception -- the column path neither
        swallows the poison nor blames another record -- while the same
        UDF behind an exchange is quarantined."""
        def run(rebalance):
            env = Environment(config=EngineConfig(
                quarantine_threshold=5, batch_size=batch_size))

            def toxic(value):
                if value == 7:
                    raise ValueError("poison %d" % value)
                return value

            stream = env.from_collection(range(20))
            if rebalance:
                stream = stream.rebalance()
            result = stream.map(toxic).collect()
            return result, env.execute

        _, execute = run(rebalance=False)
        with pytest.raises(ValueError, match="^poison 7$"):
            execute()
        result, execute = run(rebalance=True)
        assert [letter.value for letter in execute().dead_letters] == [7]
        assert sorted(result.get()) == sorted(set(range(20)) - {7})


# -- every replayable source emits runs --------------------------------------------


def record_count(elements):
    return sum(kind == "record" for kind, *_ in elements)


def behind_barrier(channel, checkpoint_id):
    """What followed the barrier on this channel, later barriers aside."""
    return [element for element in
            channel[channel.index(("barrier", checkpoint_id)) + 1:]
            if element[0] != "barrier"]


class TestPartitionedSourceRuns:
    """``PartitionedSource`` deals one element per turn but hands the
    step's records over as one run; the interleaving and the cut are
    those of the scalar run."""

    SIZES = (13, 90, 41)        # partitions drain at different steps

    def operators(self, watermarks=True):
        rng = rng_for(ROOT, "partitioned-runs")
        partitions = [keyed_elements(rng, size) for size in self.SIZES]
        chain = [PartitionedSource([(lambda part=part: part)
                                    for part in partitions])]
        if watermarks:
            chain.append(TimestampsAndWatermarksOperator(
                GENERATORS["bounded"](), poll_every=7))
        return chain + [MapOperator(lambda v: (v[0], v[1] * 2, v[2]))]

    def test_sequence_parity_with_a_recovery(self):
        barriers = (0, 2, 5, 9)
        scalar, _, _ = drive_source_task(
            self.operators(), 1, barrier_steps=barriers, recover_at=(7, 12))
        assert sum(map(record_count, scalar)) > sum(self.SIZES)  # replayed
        for batch_size in (2, 5, 64):
            batched, _, task = drive_source_task(
                self.operators(), batch_size, barrier_steps=barriers,
                recover_at=(7, 12))
            assert task._suffix_fn is not None
            assert batched == scalar

    @pytest.mark.parametrize("batch_size", [1, 64])
    def test_restore_deals_the_partitions_as_the_first_run_did(
            self, batch_size):
        """The later barriers are cut with the short partition drained
        and the turn mid-cycle: a task restored from any of them emits
        exactly what the first one emitted behind the barrier, in the
        same order.  (No watermark operator: a restored generator
        starts over, and the partitions' event times lie far apart.)"""
        whole, snapshots, _ = drive_source_task(
            self.operators(watermarks=False), batch_size,
            barrier_steps=(1, 6, 9))
        assert [state.operator_state["0"]["drained"]
                for _, state in sorted(snapshots.items())] == [[], [0], [0]]
        assert snapshots[10].operator_state["0"]["turn"] % 2 == 1
        for checkpoint_id, state in snapshots.items():
            resumed, _, _ = drive_source_task(
                self.operators(watermarks=False), batch_size, restore=state)
            for before, after in zip(whole, resumed):
                assert after == behind_barrier(before, checkpoint_id)


class TestHybridSourceRuns:
    """Both sides of a ``HybridSource`` leave as runs: whole chunks
    dropped at the cutover, the seam crossed mid-step at the history
    burst, a restore into either phase -- element for element, counter
    for counter what the scalar run does."""

    CUTOVER = 99
    BURST = 4                   # 32 records per history step

    @staticmethod
    def stamped(timestamps):
        return [("k%d" % (ts % 4), ts, ts) for ts in timestamps]

    def operators(self):
        # History: 50 records, a stretch of 80 beyond the cutover (two
        # and a half step budgets, skipped whole), 50 more -- the seam
        # falls 4 records into the fourth step.  Stream: 30 records at
        # or below the cutover (skipped whole), then 150 live ones.
        history = self.stamped(list(range(50)) + list(range(100, 180))
                               + list(range(50, 100)))
        live = self.stamped(list(range(70, 100)) + list(range(100, 250)))
        return [HybridSource(lambda: history, lambda: live,
                             cutover=self.CUTOVER,
                             timestamp_fn=lambda value: value[2],
                             history_burst=self.BURST),
                MapOperator(lambda v: (v[0], v[1] * 2, v[2]))]

    BARRIERS = (0, 2, 3, 4, 9)

    def test_sequence_and_counter_parity(self):
        runs = {}
        for batch_size in (1, 5, 64):
            channels, _, task = drive_source_task(
                self.operators(), batch_size, barrier_steps=self.BARRIERS,
                recover_at=(3, 7))
            runs[batch_size] = (channels,
                                task.chain[0].operator.cutover_report())
        assert runs[5] == runs[1] and runs[64] == runs[1]
        # The crash at step 3 re-reads step 2 (32 history records); the
        # one at step 7 re-reads steps 4..6 behind barrier 5: history's
        # last 4, the 58 stream elements the seam step read, 8 and 8.
        assert runs[1][1] == dict(
            phase="stream", cutover=self.CUTOVER, history_emitted=100,
            history_skipped=80, stream_emitted=150, stream_skipped=30,
            replayed_records=32 + 4 + 58 + 8 + 8)

    def test_a_step_emits_its_budget_and_crosses_the_seam_inside_it(self):
        channels, snapshots, _ = drive_source_task(
            self.operators(), 64, barrier_steps=self.BARRIERS)
        for checkpoint_id, emitted in ((1, 0), (3, 64), (4, 96), (5, 128),
                                       (10, 128 + 5 * 8)):
            assert sum(record_count(channel[:channel.index(
                ("barrier", checkpoint_id))]) for channel in channels
                ) == emitted
        # Step 3 took history's last 4 records, sent the seam watermark
        # and filled the rest of its 32 from the stream side: it read
        # through the 30 skipped stream records to do so.
        at_seam = snapshots[5].operator_state["0"]
        assert at_seam["phase"] == "stream"
        assert (at_seam["history_offset"], at_seam["stream_offset"]) == (
            180, 30 + 28)
        for channel in channels:
            seam = channel.index(("watermark", self.CUTOVER))
            assert all(element[1][2] <= self.CUTOVER
                       for element in channel[:seam]
                       if element[0] == "record")
            assert all(element[1][2] > self.CUTOVER
                       for element in channel[seam:]
                       if element[0] == "record")

    @pytest.mark.parametrize("batch_size", [1, 64])
    def test_restore_into_each_phase(self, batch_size):
        whole, snapshots, _ = drive_source_task(
            self.operators(), batch_size, barrier_steps=self.BARRIERS)
        phases = set()
        for checkpoint_id, state in snapshots.items():
            phase = state.operator_state["0"]["phase"]
            phases.add(phase)
            resumed, _, task = drive_source_task(
                self.operators(), batch_size, restore=state)
            # Restored past the seam, the source re-sends the seam
            # watermark before its first record.
            lead = [("watermark", self.CUTOVER)] * (phase == "stream")
            for before, after in zip(whole, resumed):
                assert after == lead + behind_barrier(before, checkpoint_id)
            assert task.chain[0].operator.cutover_report() == dict(
                phase="stream", cutover=self.CUTOVER, history_emitted=100,
                history_skipped=80, stream_emitted=150, stream_skipped=30,
                replayed_records=0)
        assert phases == {"history", "stream"}


# -- one ingress, whatever the representation ------------------------------------


class _RunningCount(Operator):
    """Stateful, so the fused prefix stops in front of it: emits what it
    has let through so far and raises on a marked value."""

    name = "running-count"

    def __init__(self, toxic):
        super().__init__()
        self._toxic = toxic
        self._seen = 0

    def process(self, record):
        if record.value[1] == self._toxic:
            raise ValueError("toxic %r" % (record.value,))
        self._seen += 1
        self.ctx.emit((record.value, self._seen))


def _double(toxic=None):
    def fn(value):
        if value[1] == toxic:
            raise ValueError("toxic %r" % (value,))
        return value[0], value[1] * 2
    return MapOperator(fn, name="double")


def _keep():
    return FilterOperator(lambda value: value[1] % 3 != 1, name="keep")


def _tag_sides():
    return CoProcessOperator(
        lambda value, ctx: ctx.emit(("left", value)),
        lambda value, ctx: ctx.emit(("right", value)))


#: case -> (chain factory, input index, quarantine threshold, poison
#: flag, and what a batched task counts when the two halves of the input
#: arrive as ColumnarBatches: (columnar_batches_in, columnar_fallbacks)).
INGRESS_CASES = {
    "plain": (lambda: [_double(), _keep()], 0, None, 0, (2, 0)),
    "second-input": (lambda: [_tag_sides()], 1, None, 0, (0, 2)),
    # The poison is used up inside the first half; the second takes the
    # kernel again.
    "poison": (lambda: [_double(), _keep()], 0, 5, 2, (1, 1)),
    "quarantine-fused": (lambda: [_double(), _keep()], 0, 5, 0, (2, 0)),
    "quarantine-partly-fused": (
        lambda: [_double(), _RunningCount(toxic=8)], 0, 5, 0, (0, 2)),
    # The kernel was tried on both halves and raised in the first.
    "kernel-raises": (lambda: [_double(toxic=4), _keep()], 0, 5, 0, (2, 0)),
}
INGRESS_RECORDS = [Record(("k%d" % (i % 3), i), i * 10, key="k%d" % (i % 3))
                   for i in range(12)]
INGRESS_SHAPES = {
    "records": lambda half: list(half),
    "row-batch": lambda half: [RecordBatch(list(half))],
    "columnar": lambda half: [batch_to_columnar(half)],
}


def drive_ingress(case, shape, batch_size):
    """Feed ``INGRESS_RECORDS`` in two halves, as ``shape``, to one
    hand-built two-input task; returns what it emitted, its dead
    letters and its counters."""
    make_chain, input_index, threshold, poison, _ = INGRESS_CASES[case]
    task = Task("chain", 0, 0, 1, make_chain(), ManualClock(),
                MetricGroup("test"), elements_per_step=64,
                batch_size=batch_size)
    inputs = [Channel("in-%d" % index, capacity=1 << 30)
              for index in range(2)]
    for index, channel in enumerate(inputs):
        task.add_input(channel, index)
    output = Channel("out", capacity=1 << 30)
    task.add_output_edge(OutputEdge(ForwardPartitioner(), [output], 0))
    task.quarantine_threshold = threshold
    task.poison_next_records = poison
    task.open()
    for half in (INGRESS_RECORDS[:6], INGRESS_RECORDS[6:]):
        for element in INGRESS_SHAPES[shape](half):
            inputs[input_index].push(element)
    for channel in inputs:
        channel.push(END_OF_STREAM)
    steps = 0
    while not task.finished:
        task.step()
        steps += 1
        assert steps < 100
    counters = {name: task.metrics.counter(name).value
                for name in ("records_in", "records_out", "dead_letters",
                             "columnar_batches_in", "columnar_fallbacks")}
    letters = [(letter.value, letter.timestamp, letter.key,
                letter.error_type) for letter in task.dead_letters]
    return channel_elements(output), letters, counters


class TestOneIngress:
    """Every data element enters a task's chain the same way: the same
    records as ``Record``s, as a ``RecordBatch`` or as a
    ``ColumnarBatch``, scalar or batched, leave the same emissions, dead
    letters and record counts behind -- only the columnar counters tell
    the representations apart."""

    @pytest.mark.parametrize("case", sorted(INGRESS_CASES))
    def test_representations_agree(self, case):
        expected_columnar = INGRESS_CASES[case][4]
        emitted, letters, counters = drive_ingress(case, "records", 1)
        assert record_count(emitted) == counters["records_out"] > 0
        assert counters["records_in"] == len(INGRESS_RECORDS)
        assert len(letters) == counters["dead_letters"]
        for batch_size in (1, 64):
            for shape in sorted(INGRESS_SHAPES):
                got_emitted, got_letters, got = drive_ingress(
                    case, shape, batch_size)
                assert got_emitted == emitted, (shape, batch_size)
                assert got_letters == letters, (shape, batch_size)
                columnar = (got.pop("columnar_batches_in"),
                            got.pop("columnar_fallbacks"))
                assert got == {name: counters[name] for name in got}
                if shape != "columnar":
                    assert columnar == (0, 0)
                elif batch_size == 1:
                    assert columnar == (0, 2)   # no kernel in scalar mode
                else:
                    assert columnar == expected_columnar

    def test_the_cases_exercise_what_they_name(self):
        dead = {case: drive_ingress(case, "columnar", 64)[1]
                for case in INGRESS_CASES}
        assert dead["plain"] == dead["second-input"] == []
        assert dead["quarantine-fused"] == []
        assert [letter[3] for letter in dead["poison"]] == ["PoisonPill"] * 2
        assert [letter[0] for letter in dead["quarantine-partly-fused"]] == [
            ("k1", 4)]
        assert [letter[0] for letter in dead["kernel-raises"]] == [("k1", 4)]
        task_chain = Task("chain", 0, 0, 1, INGRESS_CASES[
            "quarantine-partly-fused"][0](), ManualClock(),
            MetricGroup("test"), batch_size=64)
        assert 0 < task_chain._fused_prefix < len(task_chain.chain)


# -- what the flagship job's source chain costs ---------------------------------


def test_quick_keyed_window_hashes_per_key_and_fuses_the_source_chain(
        monkeypatch, tmp_path):
    """Counts, not wall clock, on the benchmark's own ``keyed_window``
    program at its ``--quick`` size: upstream of the hash edge nothing
    is paid per record that can be paid per distinct key or per run --
    one ``Record`` per record the edge delivers, none before it -- and
    the window assigner builds a window per window, not per record."""
    benchmarks = os.path.join(os.path.dirname(__file__), os.pardir,
                              os.pardir, "benchmarks")
    monkeypatch.syspath_prepend(benchmarks)
    monkeypatch.syspath_prepend(os.path.join(benchmarks, "e14"))
    workload = importlib.import_module("workloads").KeyedWindow()
    events = workload.generate(0, 0.05)

    calls = {"fnv1a": 0, "map": 0, "filter": 0,
             "source_records": 0, "assigned_windows": 0}
    inside = {"source": False, "assign": False}

    def counting(name, fn, when=None):
        def wrapper(*args):
            if when is None or inside[when]:
                calls[name] += 1
            return fn(*args)
        return wrapper

    def marking(where, fn, applies=lambda *args: True):
        def wrapper(*args):
            inside[where] = applies(*args)
            try:
                return fn(*args)
            finally:
                inside[where] = False
        return wrapper

    monkeypatch.setattr(partition, "_fnv1a",
                        counting("fnv1a", partition._fnv1a))
    monkeypatch.setattr(MapOperator, "process",
                        counting("map", MapOperator.process))
    monkeypatch.setattr(FilterOperator, "process",
                        counting("filter", FilterOperator.process))
    monkeypatch.setattr(Task, "step", marking(
        "source", Task.step, lambda task: task.is_source))
    monkeypatch.setattr(Record, "__init__", counting(
        "source_records", Record.__init__, "source"))
    monkeypatch.setattr(TumblingEventTimeWindows, "assign", marking(
        "assign", TumblingEventTimeWindows.assign))
    monkeypatch.setattr(TimeWindow, "__init__", counting(
        "assigned_windows", TimeWindow.__init__, "assign"))
    partition._TEXT_DIGESTS.clear()

    job = workload.build(events, str(tmp_path))
    assert job.env.config.batch_size > 1
    job.env.execute()
    score = workload.score(job, workload.expect(events), 0.0, 0.0)
    assert score.attempted > 100 and score.failed == 0
    assert 0 < calls["fnv1a"] <= len({event.user for event in events})
    assert calls["map"] == calls["filter"] == 0
    source, = [task for task in job.env.last_engine.tasks if task.is_source]
    delivered = source.metrics.counter("records_out").value
    assert 0 < delivered < len(events)          # the filter dropped some
    assert calls["source_records"] == delivered
    windows = {event.timestamp // workload.window_ms for event in events}
    assert 0 < calls["assigned_windows"] <= 8 * len(windows)
