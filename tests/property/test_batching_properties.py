"""Property tests for the batched execution mode.

The invariant under test: producers split record batches at every
control-element boundary (watermark, checkpoint barrier, end-of-stream),
and consumers split them at the step-budget boundary -- and none of that
splitting may ever reorder, drop or duplicate a record.  At parallelism
1 every channel is a single FIFO, so the engine's output must be
*sequence*-identical between ``batch_size=1`` and any other batch size,
for arbitrary streams, arbitrary batch sizes and with checkpoint
barriers interleaving the data.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.environment import Environment
from repro.runtime.engine import EngineConfig
from repro.testing.oracles import run_streaming_windows
from tests.integration.test_batched_execution import (
    GENERATORS,
    SOURCES,
    SUFFIXES,
    drive_source_task,
    source_chain,
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


@settings(max_examples=20, deadline=None)
@given(elements=keyed_streams(),
       batch_size=st.integers(min_value=2, max_value=32),
       threshold=st.integers(min_value=3, max_value=10))
def test_quarantine_semantics_identical_under_batching(elements, batch_size,
                                                       threshold):
    """Poison records quarantined from a fused batch must match the
    scalar path exactly: same dead letters, same surviving output."""
    def run(config):
        env = Environment(config=config)

        def toxic(e):
            if e[1] == 7:  # poison value
                raise ValueError("poison")
            return e
        result = (env.from_collection(elements)
                  .rebalance()
                  .map(toxic)
                  .global_()
                  .collect())
        job = env.execute()
        return result.get(), [letter.value for letter in job.dead_letters]

    poison_count = sum(1 for e in elements if e[1] == 7)
    if poison_count > threshold:
        return  # escalation path; covered by the chaos suite
    scalar_out, scalar_dead = run(EngineConfig(
        quarantine_threshold=threshold, batch_size=1))
    batched_out, batched_dead = run(EngineConfig(
        quarantine_threshold=threshold, batch_size=batch_size))
    assert batched_out == scalar_out
    assert batched_dead == scalar_dead
