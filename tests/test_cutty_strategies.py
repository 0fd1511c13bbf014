"""Equivalence and cost tests across all window-aggregation strategies.

Every strategy (Cutty, eager, lazy, Pairs, Panes, B-Int) must produce the
*same window results* as a brute-force reference on in-order streams;
they differ only in cost, which the second half of this module checks
matches the Cutty paper's ordering.
"""

import random

import pytest

from repro.cutty import (
    CuttyAggregator,
    PeriodicWindows,
    SessionWindows,
    SharedCuttyAggregator,
)
from repro.cutty.baselines import (
    BIntAggregator,
    EagerPerWindowAggregator,
    LazyRecomputeAggregator,
    PairsAggregator,
    PanesAggregator,
    UnsharedMultiQueryAggregator,
)
from repro.cutty.specs import CountWindows, PunctuationWindows
from repro.observability import AggregationCostCounter
from repro.state import TaskSnapshot
from repro.windowing.aggregates import MaxAggregate, SumAggregate


# -- brute-force references ---------------------------------------------------

def reference_periodic(stream, size, slide, aggregate_fn=sum):
    """Expected {(start, end): value} for sliding windows, nonempty only,
    limited to windows with start <= last timestamp (the flush horizon)."""
    if not stream:
        return {}
    first_ts = stream[0][1]
    last_ts = max(ts for _, ts in stream)
    earliest = ((first_ts - size) // slide + 1) * slide
    expected = {}
    for start in range(earliest, last_ts + 1, slide):
        values = [v for v, ts in stream if start <= ts < start + size]
        if values:
            expected[(start, start + size)] = aggregate_fn(values)
    return expected


def reference_sessions(stream, gap, aggregate_fn=sum):
    expected = {}
    session = []
    for value, ts in stream:
        if session and ts > session[-1][1] + gap:
            start = session[0][1]
            end = session[-1][1] + gap
            expected[(start, end)] = aggregate_fn(v for v, _ in session)
            session = []
        session.append((value, ts))
    if session:
        start = session[0][1]
        end = session[-1][1] + gap
        expected[(start, end)] = aggregate_fn(v for v, _ in session)
    return expected


def reference_count(stream, size, slide, aggregate_fn=sum):
    expected = {}
    for start in range(0, len(stream) - size + 1, slide):
        values = [v for v, _ in stream[start:start + size]]
        expected[(start, start + size)] = aggregate_fn(values)
    return expected


def run(aggregator, stream, flush_ts=None):
    """Feed a stream, flush, and index results by (start, end)."""
    results = {}
    for value, ts in stream:
        for result in aggregator.insert(value, ts):
            results[(result.start, result.end)] = result.value
    last_ts = max((ts for _, ts in stream), default=0)
    for result in aggregator.flush(flush_ts if flush_ts is not None
                                   else last_ts):
        results[(result.start, result.end)] = result.value
    return results


def random_stream(n, max_gap=30, seed=7):
    rng = random.Random(seed)
    ts = 0
    stream = []
    for _ in range(n):
        ts += rng.randint(0, max_gap)
        stream.append((rng.randint(-5, 10), ts))
    return stream


# -- correctness: periodic windows -----------------------------------------------

PERIODIC_CASES = [(10, 10), (10, 5), (30, 10), (25, 10), (100, 7), (13, 13)]


@pytest.mark.parametrize("size,slide", PERIODIC_CASES)
def test_cutty_matches_reference_on_periodic(size, slide):
    stream = random_stream(300, seed=size * 100 + slide)
    aggregator = CuttyAggregator(SumAggregate(), PeriodicWindows(size, slide))
    assert run(aggregator, stream) == reference_periodic(stream, size, slide)


@pytest.mark.parametrize("size,slide", PERIODIC_CASES)
def test_eager_matches_reference_on_periodic(size, slide):
    stream = random_stream(300, seed=size * 100 + slide)
    aggregator = EagerPerWindowAggregator(
        SumAggregate(), {0: PeriodicWindows(size, slide)})
    assert run(aggregator, stream) == reference_periodic(stream, size, slide)


@pytest.mark.parametrize("size,slide", PERIODIC_CASES)
def test_lazy_matches_reference_on_periodic(size, slide):
    stream = random_stream(300, seed=size * 100 + slide)
    aggregator = LazyRecomputeAggregator(
        SumAggregate(), {0: PeriodicWindows(size, slide)})
    assert run(aggregator, stream) == reference_periodic(stream, size, slide)


@pytest.mark.parametrize("size,slide", PERIODIC_CASES)
def test_pairs_matches_reference_on_periodic(size, slide):
    stream = random_stream(300, seed=size * 100 + slide)
    aggregator = PairsAggregator(SumAggregate(), size, slide)
    assert run(aggregator, stream) == reference_periodic(stream, size, slide)


@pytest.mark.parametrize("size,slide", PERIODIC_CASES)
def test_panes_matches_reference_on_periodic(size, slide):
    stream = random_stream(300, seed=size * 100 + slide)
    aggregator = PanesAggregator(SumAggregate(), size, slide)
    assert run(aggregator, stream) == reference_periodic(stream, size, slide)


@pytest.mark.parametrize("size,slide", PERIODIC_CASES)
def test_bint_matches_reference_on_periodic(size, slide):
    stream = random_stream(300, seed=size * 100 + slide)
    aggregator = BIntAggregator(SumAggregate(),
                                {0: PeriodicWindows(size, slide)})
    assert run(aggregator, stream) == reference_periodic(stream, size, slide)


def test_cutty_with_non_invertible_aggregate():
    stream = random_stream(300, seed=42)
    aggregator = CuttyAggregator(MaxAggregate(), PeriodicWindows(30, 10))
    expected = reference_periodic(stream, 30, 10, aggregate_fn=max)
    assert run(aggregator, stream) == expected


def test_dense_timestamps_with_duplicates():
    stream = [(i % 7, i // 3) for i in range(200)]  # 3 events per ts
    aggregator = CuttyAggregator(SumAggregate(), PeriodicWindows(10, 5))
    assert run(aggregator, stream) == reference_periodic(stream, 10, 5)


# -- correctness: user-defined windows ----------------------------------------------

@pytest.mark.parametrize("gap", [5, 17, 50])
def test_cutty_matches_reference_on_sessions(gap):
    stream = random_stream(300, max_gap=gap * 2, seed=gap)
    aggregator = CuttyAggregator(SumAggregate(), SessionWindows(gap))
    assert run(aggregator, stream) == reference_sessions(stream, gap)


@pytest.mark.parametrize("gap", [5, 17])
def test_lazy_matches_reference_on_sessions(gap):
    stream = random_stream(300, max_gap=gap * 2, seed=gap)
    aggregator = LazyRecomputeAggregator(SumAggregate(),
                                         {0: SessionWindows(gap)})
    assert run(aggregator, stream) == reference_sessions(stream, gap)


@pytest.mark.parametrize("size,slide", [(5, 5), (8, 2), (10, 3)])
def test_cutty_matches_reference_on_count_windows(size, slide):
    stream = random_stream(200, seed=size)
    aggregator = CuttyAggregator(SumAggregate(), CountWindows(size, slide))
    assert run(aggregator, stream) == reference_count(stream, size, slide)


def test_cutty_punctuation_windows():
    stream = [(1, 0), (2, 5), (0, 10), (3, 15), (0, 20), (4, 25)]
    aggregator = CuttyAggregator(
        SumAggregate(), PunctuationWindows(lambda v: v == 0))
    results = run(aggregator, stream)
    # Windows: [0,10) -> 1+2, [10,20) -> 0+3, [20,26) -> 0+4.
    assert results == {(0, 10): 3, (10, 20): 3, (20, 26): 4}


# -- multi-query sharing ---------------------------------------------------------------

def test_shared_multi_query_matches_per_query_references():
    stream = random_stream(400, seed=11)
    queries = {
        "q10": PeriodicWindows(10, 5),
        "q50": PeriodicWindows(50, 10),
        "sess": SessionWindows(25),
    }
    aggregator = SharedCuttyAggregator(SumAggregate(), queries)
    results = {}
    for value, ts in stream:
        for result in aggregator.insert(value, ts):
            results[(result.query_id, result.start, result.end)] = result.value
    for result in aggregator.flush():
        results[(result.query_id, result.start, result.end)] = result.value

    for (start, end), value in reference_periodic(stream, 10, 5).items():
        assert results[("q10", start, end)] == value
    for (start, end), value in reference_periodic(stream, 50, 10).items():
        assert results[("q50", start, end)] == value
    for (start, end), value in reference_sessions(stream, 25).items():
        assert results[("sess", start, end)] == value


def test_unshared_wrapper_matches_shared_results():
    stream = random_stream(200, seed=3)
    sizes = {(f"q{size}"): size for size in (10, 30, 50)}
    shared = SharedCuttyAggregator(
        SumAggregate(),
        {qid: PeriodicWindows(size, 10) for qid, size in sizes.items()})
    unshared = UnsharedMultiQueryAggregator(
        lambda qid, counter: CuttyAggregator(
            SumAggregate(), PeriodicWindows(sizes[qid], 10), counter),
        list(sizes))
    shared_results = {}
    unshared_results = {}
    for value, ts in stream:
        for result in shared.insert(value, ts):
            shared_results[(result.query_id, result.start, result.end)] = \
                result.value
        for result in unshared.insert(value, ts):
            unshared_results[(result.query_id, result.start, result.end)] = \
                result.value
    for result in shared.flush():
        shared_results[(result.query_id, result.start, result.end)] = \
            result.value
    last_ts = stream[-1][1]
    for result in unshared.flush(last_ts):
        unshared_results[(result.query_id, result.start, result.end)] = \
            result.value
    assert shared_results == unshared_results


# -- cost ordering (the paper's claims) ----------------------------------------------------

def dense_stream(n):
    return [(1, t) for t in range(n)]


def test_cutty_one_lift_per_record():
    stream = dense_stream(1000)
    counter = AggregationCostCounter()
    aggregator = CuttyAggregator(SumAggregate(), PeriodicWindows(100, 10),
                                 counter)
    run(aggregator, stream)
    assert counter.lifts.value == len(stream)


def test_eager_lifts_scale_with_overlap():
    stream = dense_stream(1000)
    counter = AggregationCostCounter()
    aggregator = EagerPerWindowAggregator(
        SumAggregate(), {0: PeriodicWindows(100, 10)}, counter)
    run(aggregator, stream)
    # size/slide = 10 windows contain each element.
    assert counter.lifts.value == pytest.approx(10 * len(stream), rel=0.05)


def test_cutty_beats_eager_on_large_overlap():
    stream = dense_stream(2000)
    cutty_counter = AggregationCostCounter()
    run(CuttyAggregator(SumAggregate(), PeriodicWindows(500, 10),
                        cutty_counter), stream)
    eager_counter = AggregationCostCounter()
    run(EagerPerWindowAggregator(SumAggregate(),
                                 {0: PeriodicWindows(500, 10)},
                                 eager_counter), stream)
    assert (cutty_counter.operations_per_record()
            < eager_counter.operations_per_record() / 5)


def test_cutty_memory_beats_bint():
    stream = dense_stream(2000)
    cutty_counter = AggregationCostCounter()
    run(CuttyAggregator(SumAggregate(), PeriodicWindows(500, 50),
                        cutty_counter), stream)
    bint_counter = AggregationCostCounter()
    run(BIntAggregator(SumAggregate(), {0: PeriodicWindows(500, 50)},
                       bint_counter), stream)
    # Cutty stores ~size/slide partials; B-Int stores ~size records.
    assert cutty_counter.max_live_partials * 10 < bint_counter.max_live_partials


def test_sharing_is_sublinear_in_query_count():
    stream = dense_stream(1000)
    rng = random.Random(5)

    def cost_of(num_queries):
        queries = {i: PeriodicWindows(rng.choice([100, 200, 300]), 20)
                   for i in range(num_queries)}
        counter = AggregationCostCounter()
        aggregator = SharedCuttyAggregator(SumAggregate(), queries, counter)
        for value, ts in stream:
            aggregator.insert(value, ts)
        return counter.lifts.value

    # Lifts do not grow with the number of queries (they stay 1/record).
    assert cost_of(8) == cost_of(1) == len(stream)


def test_snapshot_restore_roundtrip_mid_stream():
    stream = dense_stream(500)
    aggregator = CuttyAggregator(SumAggregate(), PeriodicWindows(50, 10))
    results_before = {}
    for value, ts in stream[:250]:
        for result in aggregator.insert(value, ts):
            results_before[(result.start, result.end)] = result.value
    snapshot = aggregator.snapshot()

    resumed = CuttyAggregator(SumAggregate(), PeriodicWindows(50, 10))
    resumed.restore(snapshot)
    for value, ts in stream[250:]:
        for result in resumed.insert(value, ts):
            results_before[(result.start, result.end)] = result.value
    for result in resumed.flush():
        results_before[(result.start, result.end)] = result.value
    assert results_before == reference_periodic(stream, 50, 10)


def test_restore_appends_live_slices_not_every_slice_ever_cut(monkeypatch):
    """Restore cost follows the state, not the age of the stream; and the
    restored aggregator carries on exactly like the uninterrupted one."""
    from repro.cutty.flatfat import FlatFAT

    def specs():
        return {"sliding": PeriodicWindows(50, 10),
                "idle": SessionWindows(15)}

    # Dense, with a pause every 97 elements so that sessions close (an
    # open session pins every slice since its start).
    stream = [(1, ts + 30 * (ts // 97)) for ts in range(20_000)]
    head, tail = stream[:19_000], stream[19_000:]
    original = SharedCuttyAggregator(SumAggregate(), specs())
    for value, ts in head:
        original.insert(value, ts)
    # As a checkpoint keeps it: the original runs on after the cut.
    snapshot = TaskSnapshot(("1-cutty", 0), {},
                            original.snapshot()).operator_state
    assert snapshot["front"] > 1_000       # an old stream ...
    live = original.live_slices
    assert live < 10                       # ... with little state

    appends = []
    append = FlatFAT.append
    monkeypatch.setattr(
        FlatFAT, "append",
        lambda tree, partial: appends.append(partial) or append(tree, partial))
    restored = SharedCuttyAggregator(SumAggregate(), specs())
    restored.restore(snapshot)
    assert len(appends) <= live
    monkeypatch.undo()

    assert restored.live_slices == live
    emitted = []
    for aggregator in (original, restored):
        aggregator.counter.reset()
        emitted.append([result for value, ts in tail
                        for result in aggregator.insert(value, ts)]
                       + aggregator.flush())
    assert emitted[0] == emitted[1] != []
    assert restored.counter.snapshot() == original.counter.snapshot()
    assert restored.query_stats == original.query_stats
