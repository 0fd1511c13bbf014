"""E1 -- Aggregate operations per record vs. window range.

Reproduces the shape of Cutty (CIKM'16) Fig. 7: a single sliding-window
query with fixed slide and growing range, comparing every strategy on
the logical cost metric (lift+combine+lower invocations per record).

Expected shape (asserted):
* eager per-window and lazy recompute grow linearly with range/slide;
* Pairs/Panes stay low but pay linear final combines;
* B-Int pays per-record tree maintenance;
* Cutty stays near-flat -- at the largest range it beats eager by >10x.
"""

import pytest

from harness import dense_stream, format_table, record, run_aggregator
from repro.cutty import CuttyAggregator, PeriodicWindows
from repro.cutty.baselines import (
    BIntAggregator,
    EagerPerWindowAggregator,
    LazyRecomputeAggregator,
    PairsAggregator,
    PanesAggregator,
)
from repro.observability import AggregationCostCounter
from repro.windowing.aggregates import SumAggregate

SLIDE = 100
RANGES = [100, 500, 1000, 2500, 5000]
STREAM = dense_stream(10_000)


def _strategies(size):
    return {
        "cutty": lambda c: CuttyAggregator(
            SumAggregate(), PeriodicWindows(size, SLIDE), c),
        "eager": lambda c: EagerPerWindowAggregator(
            SumAggregate(), {0: PeriodicWindows(size, SLIDE)}, c),
        "lazy": lambda c: LazyRecomputeAggregator(
            SumAggregate(), {0: PeriodicWindows(size, SLIDE)}, c),
        "pairs": lambda c: PairsAggregator(SumAggregate(), size, SLIDE, c),
        "panes": lambda c: PanesAggregator(SumAggregate(), size, SLIDE, c),
        "b-int": lambda c: BIntAggregator(
            SumAggregate(), {0: PeriodicWindows(size, SLIDE)}, c),
    }


def sweep():
    table = {}
    for size in RANGES:
        for name, factory in _strategies(size).items():
            counter = AggregationCostCounter()
            run_aggregator(factory(counter), STREAM)
            table[(name, size)] = counter.operations_per_record()
    return table


def test_e1_ops_per_record_vs_range(benchmark):
    table = benchmark.pedantic(sweep, iterations=1, rounds=1)

    names = ["cutty", "pairs", "panes", "b-int", "eager", "lazy"]
    rows = [[size] + [table[(name, size)] for name in names]
            for size in RANGES]
    record("e1_range_sweep", format_table(
        ["range(ms)"] + names, rows,
        title="E1: aggregate ops/record, sliding windows, slide=%dms, "
              "%d records" % (SLIDE, len(STREAM))))

    largest = RANGES[-1]
    # Shape: Cutty near-flat, eager/lazy linear in range/slide.
    assert table[("cutty", largest)] < table[("cutty", RANGES[0])] * 3
    assert table[("eager", largest)] > table[("eager", RANGES[0])] * 10
    # Who wins at the largest range, and by how much.
    assert table[("cutty", largest)] * 10 < table[("eager", largest)]
    assert table[("cutty", largest)] * 10 < table[("lazy", largest)]
    assert table[("cutty", largest)] < table[("b-int", largest)]
