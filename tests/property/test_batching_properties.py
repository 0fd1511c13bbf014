"""Property tests for the batched execution mode.

The invariant under test: producers cut record batches at every
checkpoint barrier and at end of stream, carry each watermark inside
the batch at its position, and consumers split batches at the
step-budget boundary -- and none of that may ever reorder, drop or
duplicate a record or move a watermark.  At parallelism
1 every channel is a single FIFO, so the engine's output must be
*sequence*-identical between ``batch_size=1`` and any other batch size,
for arbitrary streams, arbitrary batch sizes and with checkpoint
barriers interleaving the data.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.environment import Environment
from repro.runtime.channels import Channel
from repro.runtime.columnar import batch_to_columnar
from repro.runtime.elements import Record, RecordBatch, Watermark, segments
from repro.runtime.engine import EngineConfig
from repro.runtime.partition import (
    BroadcastPartitioner,
    ForwardPartitioner,
    GlobalPartitioner,
    HashPartitioner,
    RebalancePartitioner,
)
from repro.runtime.task import ColumnRun, OutputEdge, Task
from repro.testing.oracles import run_streaming_windows
from tests.integration.test_batched_execution import (
    GENERATORS,
    SOURCES,
    SUFFIXES,
    channel_elements,
    drive_source_task,
    source_chain,
    unpacked,
)


@st.composite
def keyed_streams(draw):
    """(key, value, ts) tuples with unconstrained timestamp disorder."""
    size = draw(st.integers(min_value=1, max_value=120))
    keys = draw(st.lists(st.integers(min_value=0, max_value=5),
                         min_size=size, max_size=size))
    values = draw(st.lists(st.integers(min_value=-50, max_value=50),
                           min_size=size, max_size=size))
    stamps = draw(st.lists(st.integers(min_value=0, max_value=400),
                           min_size=size, max_size=size))
    return list(zip(keys, values, stamps))


def run_keyed_count(elements, config):
    env = Environment(config=config)
    result = (env.from_collection(elements)
              .map(lambda e: (e[0], e[1] * 2))
              .filter(lambda e: e[1] % 3 != 1)
              .key_by(lambda e: e[0])
              .count()
              .collect())
    env.execute()
    return result.get()


@settings(max_examples=30, deadline=None)
@given(elements=keyed_streams(),
       batch_size=st.integers(min_value=2, max_value=64),
       elements_per_step=st.integers(min_value=1, max_value=8))
def test_batching_never_reorders_or_drops(elements, batch_size,
                                          elements_per_step):
    """Ordered sink-sequence equality: tiny step budgets force batch
    splitting at the consumer, checkpoint barriers force flushes at the
    producer, and the output sequence must not care."""
    scalar = run_keyed_count(elements, EngineConfig(
        elements_per_step=elements_per_step, checkpoint_interval_ms=3,
        batch_size=1))
    batched = run_keyed_count(elements, EngineConfig(
        elements_per_step=elements_per_step, checkpoint_interval_ms=3,
        batch_size=batch_size))
    assert batched == scalar


@settings(max_examples=20, deadline=None)
@given(elements=keyed_streams(),
       batch_size=st.integers(min_value=2, max_value=48))
def test_watermark_boundaries_preserved_in_windows(elements, batch_size):
    """Watermark splitting: an event-time window pipeline (watermarks
    interleaving the data, late records dropped by the operator) must
    produce the identical result map in both modes at parallelism 1 --
    even for arbitrarily disordered timestamps, because a single FIFO
    preserves the exact record/watermark sequence."""
    elements = [("k%d" % k, value, ts) for k, value, ts in elements]
    assigner = {"kind": "tumbling", "size": 50}
    scalar, _ = run_streaming_windows(
        elements, assigner, "sum", ooo_bound=8, parallelism=1,
        config=EngineConfig(batch_size=1, checkpoint_interval_ms=5))
    batched, _ = run_streaming_windows(
        elements, assigner, "sum", ooo_bound=8, parallelism=1,
        config=EngineConfig(batch_size=batch_size,
                            checkpoint_interval_ms=5))
    assert batched == scalar


@settings(max_examples=80, deadline=None)
@given(elements=keyed_streams(),
       batch_size=st.one_of(st.integers(min_value=2, max_value=64),
                            st.just(1024)),
       elements_per_step=st.integers(min_value=1, max_value=40),
       barrier_steps=st.sets(st.integers(min_value=0, max_value=40),
                             max_size=6),
       generator=st.sampled_from(sorted(GENERATORS)),
       poll_every=st.sampled_from([1, 7]),
       suffix=st.sampled_from(SUFFIXES),
       source=st.sampled_from(sorted(SOURCES)))
def test_source_chain_element_sequence_is_the_scalar_one(
        elements, batch_size, elements_per_step, barrier_steps, generator,
        poll_every, suffix, source):
    """``source -> timestamps/watermarks -> map -> filter -> key_by``:
    each source burst travels as a run of columns -- the watermark
    operator stamps and cuts it, the stateless suffix is applied once
    per run as it leaves the task, the hash edge builds the records --
    yet each output channel carries the records, watermarks and
    barriers of the record-at-a-time execution, in the same order.
    Whatever the source kind (one that mixes ``collect`` singles into
    its runs included), wherever rows begin."""
    elements = [("k%d" % k, value, ts) for k, value, ts in elements]
    scalar, _, _ = drive_source_task(
        source_chain(elements, generator, poll_every, suffix, source), 1,
        elements_per_step=elements_per_step, barrier_steps=barrier_steps)
    batched, _, _ = drive_source_task(
        source_chain(elements, generator, poll_every, suffix, source),
        batch_size, elements_per_step=elements_per_step,
        barrier_steps=barrier_steps)
    assert batched == scalar


# -- watermarks inside batches ---------------------------------------------------


@st.composite
def marked_runs(draw):
    """A run of records with watermark marks at random offsets (several
    at one offset, at 0 and at the end included): ``(records, marks)``."""
    size = draw(st.integers(min_value=0, max_value=40))
    records = [Record((draw(st.integers(min_value=0, max_value=5)), index),
                      draw(st.integers(min_value=0, max_value=400)))
               for index in range(size)]
    offsets = sorted(draw(st.lists(st.integers(min_value=0, max_value=size),
                                   max_size=6)))
    stamps = sorted(draw(st.sets(st.integers(min_value=-50, max_value=500),
                                 min_size=len(offsets),
                                 max_size=len(offsets))))
    return records, list(zip(offsets, stamps))


#: Every partitioner an output edge routes by.
PARTITIONERS = {
    "hash": lambda: HashPartitioner(lambda value: value[0]),
    "rebalance": RebalancePartitioner,
    "forward": ForwardPartitioner,
    "broadcast": BroadcastPartitioner,
    "global": GlobalPartitioner,
}


@settings(max_examples=200, deadline=None)
@given(run=marked_runs(), partitioner=st.sampled_from(sorted(PARTITIONERS)),
       channels=st.integers(min_value=1, max_value=3),
       cursor=st.integers(min_value=0, max_value=7),
       subtask_index=st.integers(min_value=0, max_value=2),
       as_columns=st.booleans())
def test_a_marked_run_routes_as_record_at_a_time(
        run, partitioner, channels, cursor, subtask_index, as_columns):
    """One marked run through an ``OutputEdge`` -- as a row batch or as
    columns -- leaves every channel the records and watermarks that
    routing it one record (and one broadcast watermark) at a time
    leaves there, in the same order, and the same round-robin cursor."""
    records, marks = run

    def route(emit):
        outputs = [Channel("out-%d" % index, capacity=1 << 30)
                   for index in range(channels)]
        edge = OutputEdge(PARTITIONERS[partitioner](), outputs,
                          subtask_index)
        edge.partitioner.restore_state({"next": cursor})
        emit(edge)
        return ([channel_elements(channel) for channel in outputs],
                edge.partitioner.snapshot_state())

    def one_at_a_time(edge):
        for start, stop, watermark in segments(len(records), marks):
            for record in records[start:stop]:
                edge.emit_record(record)
            if watermark is not None:
                edge.broadcast(Watermark(watermark))

    def batched(edge):
        if as_columns:
            edge.emit_columnar(ColumnRun(
                [r.value for r in records], [r.timestamp for r in records],
                [r.key for r in records]), marks)
        else:
            edge.emit_batch(records, marks)

    assert route(batched) == route(one_at_a_time)


@settings(max_examples=150, deadline=None)
@given(run=marked_runs(), as_columns=st.booleans())
def test_a_marked_batch_split_at_every_budget_unpacks_the_same(
        run, as_columns):
    """A consumer with any step budget takes a marked batch one poll at
    a time -- unpacked, split at the budget, the rest requeued -- again
    and again: what it takes unpacks to the batch's own sequence, and
    the channel balances."""
    records, marks = run
    records = [Record(r.value[1], r.timestamp) for r in records]
    batch = RecordBatch(records, marks)
    if as_columns and records:
        batch = batch_to_columnar(records)
        batch.marks = marks
    expected = unpacked([batch])
    for budget in range(1, len(records) + 2):
        channel = Channel("in", capacity=1 << 30)
        channel.push(batch)
        taken = []
        element = channel.poll()
        while element is not None:
            if element.is_batch:
                element = Task._take(element, budget, channel)
            assert not element.is_batch or (
                len(element) <= budget and not element.marks
                and element.is_columnar is batch.is_columnar)
            taken.append(element)
            element = channel.poll()
        assert unpacked(taken) == expected, budget
        assert channel.pushed == channel.polled and channel.size == 0
