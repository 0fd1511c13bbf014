"""Property and differential battery for the columnar layer.

Three layers of evidence, each cheap enough to run per-commit:

* **Losslessness** (hypothesis): for arbitrary record batches, row ->
  columnar -> row and columnar -> wire bytes -> columnar -> row are
  exact identities whenever a schema is admitted at all -- and when no
  schema is admitted, that refusal is itself total (``None``), never a
  coerced batch.
* **Kernel differential** (hypothesis): a fused column kernel over a
  random stateless map/filter/flat-map chain produces exactly the rows
  the operators produce one record at a time.
* **Backend parity** (seeded oracle cases): the same windowed job run
  scalar, batched, multiprocess-over-pipes and multiprocess-over-shm
  produces identical window results -- the columnar exchange is
  observationally invisible.
"""

import multiprocessing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.plan.chaining import compile_column_chain
from repro.runtime import multiprocess
from repro.runtime.columnar import (
    batch_to_columnar,
    decode_columnar,
    encode_columnar,
    materialize_records,
)
from repro.runtime.elements import Record, RecordBatch
from repro.runtime.engine import EngineConfig
from repro.runtime.operators import (
    FilterOperator,
    FlatMapOperator,
    MapOperator,
)
from repro.testing.oracles import (
    WindowedEquivalenceOracle,
    run_streaming_windows,
)
from repro.testing.seeds import rng_for

# -- strategies --------------------------------------------------------------

scalar_values = st.one_of(
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.booleans(),
    st.none(),
    st.lists(st.integers(), max_size=3),
)
tuple_values = st.tuples(st.integers(), scalar_values)
timestamps = st.one_of(st.none(), st.integers(min_value=0, max_value=2 ** 40))
keys = st.one_of(st.none(), st.integers(min_value=0, max_value=99),
                 st.sampled_from(["a", "b", "c"]))


@st.composite
def record_batches(draw):
    size = draw(st.integers(min_value=1, max_value=40))
    homogeneous = draw(st.booleans())
    value_strategy = (draw(st.sampled_from([
        st.integers(min_value=-(2 ** 62), max_value=2 ** 62),
        st.floats(allow_nan=False),
        st.text(max_size=8),
        tuple_values,
    ])) if homogeneous else scalar_values)
    return [Record(draw(value_strategy), draw(timestamps), key=draw(keys))
            for _ in range(size)]


# -- losslessness ------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(records=record_batches())
def test_columnar_roundtrip_is_lossless(records):
    batch = batch_to_columnar(records)
    if batch is None:
        return  # refusal is a valid (and total) outcome
    assert materialize_records(batch) == records
    decoded = decode_columnar(bytes(encode_columnar(batch)))
    assert decoded.schema == batch.schema
    assert materialize_records(decoded) == records
    # The element-level row view agrees too (and caches).
    assert decoded.records == records


@settings(max_examples=100, deadline=None)
@given(records=record_batches(), data=st.data())
def test_marks_round_trip_through_the_codec(records, data):
    """The watermarks riding in a batch cross the wire at their
    positions -- and so do those of a batch of marks only."""
    batch = batch_to_columnar(records)
    if batch is None:
        return
    offsets = sorted(data.draw(st.lists(
        st.integers(0, len(records)), min_size=1, max_size=5)))
    stamps = sorted(data.draw(st.sets(
        st.integers(-(2 ** 62), 2 ** 62), min_size=len(offsets),
        max_size=len(offsets))))
    batch.marks = list(zip(offsets, stamps))
    decoded = decode_columnar(bytes(encode_columnar(batch)))
    assert decoded.marks == batch.marks
    assert decoded.records == records
    marks_only = batch.slice(0, 0)
    marks_only.marks = [(0, stamp) for stamp in stamps]
    decoded = decode_columnar(bytes(encode_columnar(marks_only)))
    assert len(decoded) == 0 and decoded.records == []
    assert decoded.marks == marks_only.marks
    assert decoded == RecordBatch([], marks_only.marks)


@settings(max_examples=60, deadline=None)
@given(records=record_batches(), start=st.integers(0, 40),
       stop=st.integers(0, 40))
def test_columnar_slice_matches_row_slice(records, start, stop):
    batch = batch_to_columnar(records)
    if batch is None:
        return
    assert batch.slice(start, stop).records == records[start:stop]


# -- kernel differential -----------------------------------------------------

def _random_chain(rng):
    ops = []
    for index in range(rng.randint(1, 4)):
        choice = rng.randrange(3)
        if choice == 0:
            factor = rng.randint(-3, 3)
            ops.append(MapOperator(
                lambda v, f=factor: v * f + 1, name="map%d" % index))
        elif choice == 1:
            modulus = rng.randint(2, 5)
            ops.append(FilterOperator(
                lambda v, m=modulus: v % m != 0, name="filter%d" % index))
        else:
            repeat = rng.randint(0, 2)
            ops.append(FlatMapOperator(
                lambda v, r=repeat: [v + i for i in range(r)],
                name="flat%d" % index))
    return ops


@pytest.mark.parametrize("case_index", range(20))
def test_column_kernel_matches_row_application(case_index):
    rng = rng_for(23, "column-kernel", case_index)
    ops = _random_chain(rng)
    kernel, prefix = compile_column_chain(ops)
    assert kernel is not None and prefix == len(ops)
    records = [Record(rng.randint(-50, 50), ts, key=rng.randrange(3))
               for ts in range(rng.randint(1, 60))]

    def row_apply(record):
        pending = [record.value]
        for op in ops:
            emitted = []
            for value in pending:
                if isinstance(op, MapOperator):
                    emitted.append(op._fn(value))
                elif isinstance(op, FilterOperator):
                    if op._predicate(value):
                        emitted.append(value)
                else:
                    emitted.extend(op._fn(value))
            pending = emitted
        return [(v, record.timestamp, record.key) for v in pending]

    expected = [row for record in records for row in row_apply(record)]
    values, ts, ks = kernel([r.value for r in records],
                            [r.timestamp for r in records],
                            [r.key for r in records])
    assert list(zip(values, ts, ks)) == expected


# -- backend parity ----------------------------------------------------------

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


@pytest.mark.skipif(not _HAS_FORK, reason="multiprocess requires fork")
@pytest.mark.parametrize("case_index", range(2))
def test_windowed_parity_scalar_batched_pipe_shm(case_index, monkeypatch):
    """The full matrix on one oracle-generated job: cooperative scalar ==
    cooperative batched == multiprocess pipe == multiprocess shm."""
    oracle = WindowedEquivalenceOracle()
    rng = rng_for(29, "columnar-parity", case_index)
    case = oracle.generate(rng, 29, case_index)
    params = case.params

    def run(config):
        results, _ = run_streaming_windows(
            list(case.stream), params["assigner"], params["aggregate"],
            params["ooo_bound"], parallelism=2, config=config)
        return results

    scalar = run(EngineConfig())
    batched = run(EngineConfig(batch_size=16))
    pipe = run(EngineConfig(backend="multiprocess", num_workers=2,
                            batch_size=16, exchange="pipe"))
    # Small slots (patched before the fleet forks) so oversize frames
    # take the pipe fallback too.
    monkeypatch.setattr(multiprocess, "EXCHANGE_SLOT_BYTES", 8192)
    shm = run(EngineConfig(backend="multiprocess", num_workers=2,
                           batch_size=16, exchange="shm"))
    assert batched == scalar, case.seed_line
    assert pipe == scalar, case.seed_line
    assert shm == scalar, case.seed_line
