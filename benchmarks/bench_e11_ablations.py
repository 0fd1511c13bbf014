"""E11 -- Ablations of the design choices DESIGN.md flags.

(a) **Operator chaining** (plan optimizer): the same 5-operator
    pipeline with chaining on vs. off.  Chaining removes channel hops;
    the unchained job pushes every record through 4 extra queues.

(b) **FlatFAT vs. linear slice combination** (Cutty final aggregation):
    identical slicing, but window results computed by an O(log n) tree
    query vs. an O(range/slide) linear scan (the Pairs/Panes approach).
    The combine count per record separates them as the range grows.

Expected shapes (asserted):
* chaining reduces channel pushes by >2x and does not change results;
* the tree's combines/record grow ~logarithmically while linear grows
  ~linearly: at range/slide = 100 the tree wins by >2x.
"""

import pytest

from harness import dense_stream, format_table, record, run_aggregator
from repro.api import Environment
from repro.cutty import CuttyAggregator, PeriodicWindows
from repro.cutty.baselines import PanesAggregator
from repro.observability import AggregationCostCounter
from repro.windowing.aggregates import SumAggregate


# -- (a) chaining -------------------------------------------------------------

def run_pipeline(chaining):
    env = Environment(chaining=chaining)
    result = (env.from_collection(range(20_000))
              .map(lambda x: x + 1)
              .filter(lambda x: x % 3 != 0)
              .map(lambda x: x * 2)
              .collect())
    job = env.execute()
    pushes = sum(channel.pushed
                 for task in env.last_engine.tasks
                 for channel, _ in task.inputs)
    return sorted(result.get()), pushes, job.rounds


def chaining_ablation():
    chained_results, chained_pushes, chained_rounds = run_pipeline(True)
    unchained_results, unchained_pushes, unchained_rounds = \
        run_pipeline(False)
    assert chained_results == unchained_results
    return {
        "chained": (chained_pushes, chained_rounds),
        "unchained": (unchained_pushes, unchained_rounds),
    }


def test_e11a_operator_chaining(benchmark):
    table = benchmark.pedantic(chaining_ablation, iterations=1, rounds=1)
    rows = [[name, pushes, rounds]
            for name, (pushes, rounds) in table.items()]
    record("e11a_chaining", format_table(
        ["plan", "channel pushes", "scheduler rounds"], rows,
        title="E11a: operator chaining ablation, "
              "source->map->filter->map->collect, 20k records"))
    assert table["unchained"][0] > 2 * table["chained"][0]


# -- (b) FlatFAT vs linear final combine ---------------------------------------

SLIDE = 50
RANGES = [250, 1000, 5000]
STREAM = dense_stream(10_000)


def combine_ablation():
    table = {}
    for size in RANGES:
        tree_counter = AggregationCostCounter()
        run_aggregator(CuttyAggregator(SumAggregate(),
                                       PeriodicWindows(size, SLIDE),
                                       tree_counter), STREAM)
        linear_counter = AggregationCostCounter()
        # Panes with size % slide == 0 cuts exactly at window begins --
        # the same slices as Cutty -- but combines them linearly.
        run_aggregator(PanesAggregator(SumAggregate(), size, SLIDE,
                                       linear_counter), STREAM)
        table[size] = (tree_counter.combines.value / len(STREAM),
                       linear_counter.combines.value / len(STREAM))
    return table


def test_e11b_flatfat_vs_linear(benchmark):
    table = benchmark.pedantic(combine_ablation, iterations=1, rounds=1)
    rows = [[size, size // SLIDE, tree, linear]
            for size, (tree, linear) in table.items()]
    record("e11b_flatfat", format_table(
        ["range(ms)", "slices/window", "tree combines/rec",
         "linear combines/rec"], rows,
        title="E11b: FlatFAT tree vs linear slice combination "
              "(same slicing, slide=%dms)" % SLIDE))
    # Linear grows with range; the tree grows ~log.
    tree_growth = table[RANGES[-1]][0] / table[RANGES[0]][0]
    linear_growth = table[RANGES[-1]][1] / table[RANGES[0]][1]
    assert linear_growth > 2 * tree_growth
    assert table[RANGES[-1]][0] * 2 < table[RANGES[-1]][1]


# -- (c) reorder stage on/off ------------------------------------------------------

def reorder_ablation():
    """What the FIFO-restoring stage costs on already-ordered input, and
    the buffer it needs on out-of-order input."""
    from conftest import bench_rng
    from repro.cutty import PeriodicWindows
    from repro.time.watermarks import WatermarkStrategy
    from repro.windowing import CountAggregate

    rng = bench_rng("e11-reorder")
    ordered = [("k", 1, ts) for ts in range(0, 8000, 4)]
    shuffled = sorted(ordered,
                      key=lambda v: v[2] + rng.randint(0, 100))
    strategy = lambda: WatermarkStrategy.for_bounded_out_of_orderness(
        lambda v: v[2], 120)

    table = {}
    for label, data, reorder in (("ordered, reorder=off", ordered, False),
                                 ("ordered, reorder=on", ordered, True),
                                 ("shuffled, reorder=on", shuffled, True)):
        import time
        env = Environment()
        results = (env.from_collection(data)
                   .assign_timestamps_and_watermarks(strategy())
                   .key_by(lambda v: v[0])
                   .shared_windows(CountAggregate,
                                   {"q": lambda: PeriodicWindows(400, 200)},
                                   reorder=reorder)
                   .collect())
        start = time.perf_counter()
        env.execute()
        elapsed = time.perf_counter() - start
        buffered = max(
            (chained.ctx.metrics.gauge("reorder_buffered").max_value
             for task in env.last_engine.tasks
             for chained in task.chain
             if "reorder" in getattr(chained.operator, "name", "")),
            default=0)
        table[label] = (elapsed, buffered, len(results.get()))
    return table


def test_e11c_reorder_stage(benchmark):
    table = benchmark.pedantic(reorder_ablation, iterations=1, rounds=1)
    rows = [[label, elapsed, buffered, windows]
            for label, (elapsed, buffered, windows) in table.items()]
    record("e11c_reorder", format_table(
        ["configuration", "wall seconds", "max buffered", "windows"],
        rows,
        title="E11c: event-time reorder stage ablation (Cutty FIFO "
              "restoration), 2k records"))
    # Reordering out-of-order data yields the same windows as the
    # ordered run without it.
    assert (table["shuffled, reorder=on"][2]
            == table["ordered, reorder=off"][2])
    # The buffer tracks the out-of-orderness bound, not the stream size.
    assert 0 < table["shuffled, reorder=on"][1] < 200
