"""Property-based tests (hypothesis) for the Cutty stack.

The invariants checked here are the paper's correctness claims:
slicing + FlatFAT produces exactly the same window results as brute
force, for arbitrary in-order streams, window parameters and aggregates;
and the one-lift-per-record property holds unconditionally.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cutty import (
    CuttyAggregator,
    PeriodicWindows,
    SessionWindows,
    SharedCuttyAggregator,
)
from repro.cutty.flatfat import FlatFAT
from repro.observability import AggregationCostCounter
from repro.windowing.aggregates import MaxAggregate, SumAggregate

from tests.test_cutty_strategies import (
    reference_periodic,
    reference_sessions,
    run,
)


@st.composite
def in_order_streams(draw, max_size=120):
    gaps = draw(st.lists(st.integers(min_value=0, max_value=25),
                         min_size=1, max_size=max_size))
    values = draw(st.lists(st.integers(min_value=-100, max_value=100),
                           min_size=len(gaps), max_size=len(gaps)))
    ts = 0
    stream = []
    for gap, value in zip(gaps, values):
        ts += gap
        stream.append((value, ts))
    return stream


@st.composite
def window_shapes(draw):
    slide = draw(st.integers(min_value=1, max_value=30))
    multiplier = draw(st.integers(min_value=1, max_value=10))
    extra = draw(st.integers(min_value=0, max_value=slide - 1))
    size = slide * multiplier + extra
    if size < slide:
        size = slide
    return size, slide


@settings(max_examples=60, deadline=None)
@given(stream=in_order_streams(), shape=window_shapes())
def test_cutty_periodic_equals_brute_force(stream, shape):
    size, slide = shape
    aggregator = CuttyAggregator(SumAggregate(), PeriodicWindows(size, slide))
    assert run(aggregator, stream) == reference_periodic(stream, size, slide)


@settings(max_examples=60, deadline=None)
@given(stream=in_order_streams(), shape=window_shapes())
def test_cutty_periodic_max_equals_brute_force(stream, shape):
    """Non-invertible aggregate: correctness cannot lean on subtraction."""
    size, slide = shape
    aggregator = CuttyAggregator(MaxAggregate(), PeriodicWindows(size, slide))
    expected = reference_periodic(stream, size, slide, aggregate_fn=max)
    assert run(aggregator, stream) == expected


@settings(max_examples=60, deadline=None)
@given(stream=in_order_streams(),
       gap=st.integers(min_value=1, max_value=40))
def test_cutty_sessions_equal_brute_force(stream, gap):
    aggregator = CuttyAggregator(SumAggregate(), SessionWindows(gap))
    assert run(aggregator, stream) == reference_sessions(stream, gap)


@settings(max_examples=40, deadline=None)
@given(stream=in_order_streams(),
       shapes=st.lists(window_shapes(), min_size=2, max_size=4))
def test_shared_queries_unaffected_by_cohabitation(stream, shapes):
    """Sharing must be transparent: each query's results in a shared
    aggregator equal its results when run alone."""
    queries = {index: PeriodicWindows(size, slide)
               for index, (size, slide) in enumerate(shapes)}
    shared = SharedCuttyAggregator(SumAggregate(), queries)
    shared_results = {}
    for value, ts in stream:
        for result in shared.insert(value, ts):
            shared_results.setdefault(result.query_id, {})[
                (result.start, result.end)] = result.value
    for result in shared.flush():
        shared_results.setdefault(result.query_id, {})[
            (result.start, result.end)] = result.value

    for index, (size, slide) in enumerate(shapes):
        alone = CuttyAggregator(SumAggregate(), PeriodicWindows(size, slide))
        assert shared_results.get(index, {}) == run(alone, stream)


@settings(max_examples=60, deadline=None)
@given(stream=in_order_streams(), shape=window_shapes())
def test_one_lift_per_record_invariant(stream, shape):
    size, slide = shape
    counter = AggregationCostCounter()
    aggregator = CuttyAggregator(SumAggregate(),
                                 PeriodicWindows(size, slide), counter)
    for value, ts in stream:
        aggregator.insert(value, ts)
    assert counter.lifts.value == len(stream)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.integers(min_value=-1000, max_value=1000),
                       min_size=1, max_size=200),
       window=st.integers(min_value=1, max_value=50))
def test_flatfat_sliding_equals_python_sum(values, window):
    tree = FlatFAT(SumAggregate(), 4)
    for index, value in enumerate(values):
        tree.append(value)
        if index >= window:
            tree.evict_front(index - window + 1)
        lo = max(0, index - window + 1)
        assert tree.query_all() == sum(values[lo:index + 1])


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.integers(), min_size=1, max_size=100),
       bounds=st.tuples(st.integers(min_value=0, max_value=100),
                        st.integers(min_value=0, max_value=100)))
def test_flatfat_arbitrary_range_queries(values, bounds):
    tree = FlatFAT(SumAggregate(), 4)
    for value in values:
        tree.append(value)
    start, end = min(bounds), max(bounds)
    end = min(end, len(values))
    start = min(start, end)
    expected = sum(values[start:end]) if start < end else None
    assert tree.query(start, end) == expected
