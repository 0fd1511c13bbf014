"""E4 -- Memory: live partial aggregates vs. window range and query count.

Reproduces the Cutty memory comparison: the high-water mark of retained
partials (slices for Cutty, per-window accumulators for eager, raw
tuples for lazy, per-record leaves for B-Int) as the window range grows
and as queries are added.

Expected shape (asserted):
* Cutty and Pairs/Panes retain O(range/slide) partials;
* lazy and B-Int retain O(range) raw entries -- slide-independent;
* shared Cutty with m queries retains the union of slices, far below
  m x per-query state.
"""

import pytest

from harness import dense_stream, format_table, record, run_aggregator
from repro.cutty import CuttyAggregator, PeriodicWindows, SharedCuttyAggregator
from repro.cutty.baselines import (
    BIntAggregator,
    EagerPerWindowAggregator,
    LazyRecomputeAggregator,
    PanesAggregator,
)
from repro.observability import AggregationCostCounter
from repro.windowing.aggregates import SumAggregate

SLIDE = 100
RANGES = [500, 2000, 5000]
STREAM = dense_stream(10_000)


def range_sweep():
    table = {}
    for size in RANGES:
        strategies = {
            "cutty": CuttyAggregator(SumAggregate(),
                                     PeriodicWindows(size, SLIDE),
                                     AggregationCostCounter()),
            "panes": PanesAggregator(SumAggregate(), size, SLIDE,
                                     AggregationCostCounter()),
            "eager": EagerPerWindowAggregator(
                SumAggregate(), {0: PeriodicWindows(size, SLIDE)},
                AggregationCostCounter()),
            "lazy": LazyRecomputeAggregator(
                SumAggregate(), {0: PeriodicWindows(size, SLIDE)},
                AggregationCostCounter()),
            "b-int": BIntAggregator(
                SumAggregate(), {0: PeriodicWindows(size, SLIDE)},
                AggregationCostCounter()),
        }
        for name, aggregator in strategies.items():
            run_aggregator(aggregator, STREAM)
            table[(name, size)] = aggregator.counter.max_live_partials
    return table


def query_sweep():
    table = {}
    for count in (1, 8, 32):
        queries = {("q%d" % i): PeriodicWindows(2000 + 100 * i, SLIDE)
                   for i in range(count)}
        counter = AggregationCostCounter()
        aggregator = SharedCuttyAggregator(SumAggregate(), queries, counter)
        run_aggregator(aggregator, STREAM)
        table[count] = counter.max_live_partials
    return table


def test_e4_memory_footprint(benchmark):
    range_table, query_table = benchmark.pedantic(
        lambda: (range_sweep(), query_sweep()), iterations=1, rounds=1)

    names = ["cutty", "panes", "eager", "lazy", "b-int"]
    rows = [[size] + [range_table[(name, size)] for name in names]
            for size in RANGES]
    text = format_table(
        ["range(ms)"] + names, rows,
        title="E4a: max live partials vs range (slide=%dms, 1ms/record)"
              % SLIDE)
    rows2 = [[count, partials] for count, partials in query_table.items()]
    text += "\n\n" + format_table(
        ["#queries", "shared-cutty max partials"], rows2,
        title="E4b: shared slices grow sublinearly with query count")
    record("e4_memory", text)

    for size in RANGES:
        # Slicing keeps ~size/slide partials; raw strategies keep ~size.
        assert range_table[("cutty", size)] * 10 \
            <= range_table[("lazy", size)]
        assert range_table[("cutty", size)] * 10 \
            <= range_table[("b-int", size)]
    # 32 queries over the same stream need nowhere near 32x the slices.
    assert query_table[32] < query_table[1] * 8
