"""E3 -- User-defined (session) windows, where Pairs/Panes cannot go.

Reproduces Cutty's non-periodic experiment: session windows over a
bursty stream.  Pairs and Panes are inapplicable (they require periodic
begin/end patterns), so the comparison is Cutty vs. the two general
baselines: lazy recompute (Flink's buffering apply) and per-record B-Int.

Expected shape (asserted):
* all three produce identical session results (cross-checked);
* Cutty's ops/record stay near 1; lazy pays the session length per
  emission; B-Int pays the per-record tree update;
* Cutty keeps at least 10x fewer live partials than B-Int.
"""

import pytest

from conftest import bench_rng
from harness import format_table, record, run_aggregator
from repro.cutty import CuttyAggregator, SessionWindows
from repro.cutty.baselines import BIntAggregator, LazyRecomputeAggregator
from repro.observability import AggregationCostCounter
from repro.windowing.aggregates import SumAggregate

GAPS = [50, 200, 1000]


def bursty_stream(count=20_000, name="e3-bursty"):
    """Bursts of activity separated by quiet periods: session structure."""
    rng = bench_rng(name)
    ts = 0
    stream = []
    for _ in range(count):
        # 5% of gaps are long (between sessions), others short (within).
        ts += rng.randint(300, 3000) if rng.random() < 0.05 \
            else rng.randint(1, 20)
        stream.append((1, ts))
    return stream


def sweep():
    stream = bursty_stream()
    table = {}
    for gap in GAPS:
        for name, factory in {
            "cutty": lambda c, g=gap: CuttyAggregator(
                SumAggregate(), SessionWindows(g), c),
            "lazy": lambda c, g=gap: LazyRecomputeAggregator(
                SumAggregate(), {0: SessionWindows(g)}, c),
            "b-int": lambda c, g=gap: BIntAggregator(
                SumAggregate(), {0: SessionWindows(g)}, c),
        }.items():
            counter = AggregationCostCounter()
            results = run_aggregator(factory(counter), stream)
            table[(name, gap)] = (counter.operations_per_record(),
                                  counter.max_live_partials, results)
    return table


def test_e3_session_windows(benchmark):
    table = benchmark.pedantic(sweep, iterations=1, rounds=1)

    rows = []
    for gap in GAPS:
        for name in ("cutty", "lazy", "b-int"):
            ops, partials, results = table[(name, gap)]
            rows.append([gap, name, ops, partials, results])
    record("e3_sessions", format_table(
        ["gap(ms)", "strategy", "ops/record", "max partials", "#sessions"],
        rows,
        title="E3: session windows on a bursty stream (20k records); "
              "Pairs/Panes are inapplicable to non-periodic windows"))

    for gap in GAPS:
        # All strategies agree on the number of sessions...
        counts = {table[(name, gap)][2]
                  for name in ("cutty", "lazy", "b-int")}
        assert len(counts) == 1
        # ...but Cutty does least work and keeps least state.
        assert table[("cutty", gap)][0] <= table[("lazy", gap)][0]
        assert table[("cutty", gap)][0] < table[("b-int", gap)][0]
        assert (table[("cutty", gap)][1] * 10
                <= table[("b-int", gap)][1])
