"""E2 -- Cost vs. number of concurrent window queries (sharing).

Reproduces the shape of Cutty's multi-query experiment and the
STREAMLINE claim of outperforming previous solutions by "order of
magnitudes": m concurrent sliding-window queries with random ranges run
(a) shared through one Cutty aggregator, (b) unshared as m independent
eager operators (the Flink default), (c) unshared as m independent Cutty
operators.

Expected shape (asserted):
* shared Cutty cost is flat-ish in m (lifts stay 1/record);
* unshared eager grows linearly with the summed range/slide;
* at m=64 the shared/unshared-eager gap exceeds 100x.
"""

import time

import pytest

from conftest import bench_rng
from harness import (
    dense_stream,
    format_table,
    record,
    record_json,
    run_aggregator,
)
from repro.cutty import CuttyAggregator, PeriodicWindows, SharedCuttyAggregator
from repro.cutty.baselines import (
    EagerPerWindowAggregator,
    UnsharedMultiQueryAggregator,
)
from repro.observability import AggregationCostCounter
from repro.windowing.aggregates import SumAggregate

SLIDE = 100
QUERY_COUNTS = [1, 4, 16, 64]
STREAM = dense_stream(5_000)

#: The arrangement leg: m concurrent *table* queries (group-bys over two
#: key sets) either share a handful of multiversioned arrangements or
#: are planned independently.  The gated metric is the summed
#: records-in/record of every operator -- the logical work the engine
#: performed, deterministic on any machine.
ARRANGEMENT_QUERY_COUNTS = [1, 16, 64, 256]
ARRANGEMENT_ROWS = [{"user": "u%02d" % (i % 32), "bucket": i % 8,
                     "amount": float(i % 97), "ts": i}
                    for i in range(1_500)]
ARRANGEMENT_AGGS = [("revenue", ("sum", "amount")), ("n", ("count", None)),
                    ("lo", ("min", "amount")), ("hi", ("max", "amount"))]


def _query_sizes(count):
    rng = bench_rng("e2-query-sizes")
    return {("q%d" % index): rng.choice([500, 1000, 2000, 4000])
            for index in range(count)}


def _run_shared(sizes):
    counter = AggregationCostCounter()
    aggregator = SharedCuttyAggregator(
        SumAggregate(),
        {qid: PeriodicWindows(size, SLIDE) for qid, size in sizes.items()},
        counter)
    run_aggregator(aggregator, STREAM)
    return counter


def _run_unshared_eager(sizes):
    counter = AggregationCostCounter()
    aggregator = EagerPerWindowAggregator(
        SumAggregate(),
        {qid: PeriodicWindows(size, SLIDE) for qid, size in sizes.items()},
        counter)
    run_aggregator(aggregator, STREAM)
    return counter


def _run_unshared_cutty(sizes):
    aggregator = UnsharedMultiQueryAggregator(
        lambda qid, counter: CuttyAggregator(
            SumAggregate(), PeriodicWindows(sizes[qid], SLIDE), counter),
        list(sizes))
    for value, ts in STREAM:
        aggregator.insert(value, ts)
    aggregator.flush(STREAM[-1][1])
    return aggregator.counter


def _run_arrangement_queries(count, share):
    """Ops/record and peak index bytes for ``count`` table queries with
    arrangement sharing on or off."""
    from repro.api import Environment
    from repro.runtime.engine import EngineConfig

    env = Environment(config=EngineConfig(share_arrangements=share))
    table = env.table(ARRANGEMENT_ROWS, time_column="ts")
    results = []
    for index in range(count):
        name, spec = ARRANGEMENT_AGGS[index % len(ARRANGEMENT_AGGS)]
        key = ("user",) if index % 2 == 0 else ("user", "bucket")
        results.append(table.group_by(*key).agg(**{name: spec}).collect())
    env.execute()
    for result in results:
        result.get()
    report = env.job_report()
    ops = sum(op["records_in"] for op in report["operators"])
    peak_bytes = sum(row["bytes_peak"]
                     for row in report.get("arrangements") or [])
    return ops / len(ARRANGEMENT_ROWS), peak_bytes


def arrangement_sweep():
    """shared vs independent ops/record (and shared peak index bytes)
    per concurrent-query count."""
    table = {}
    peaks = {}
    for count in ARRANGEMENT_QUERY_COUNTS:
        table[("arr-shared", count)], peaks[count] = \
            _run_arrangement_queries(count, share=True)
        table[("arr-independent", count)], _ = \
            _run_arrangement_queries(count, share=False)
    return table, peaks


def sweep():
    table = {}
    for count in QUERY_COUNTS:
        sizes = _query_sizes(count)
        table[("shared-cutty", count)] = \
            _run_shared(sizes).operations_per_record()
        table[("unshared-cutty", count)] = \
            _run_unshared_cutty(sizes).operations_per_record()
        table[("unshared-eager", count)] = \
            _run_unshared_eager(sizes).operations_per_record()
    return table


def build_payload():
    """Machine-readable E2 result: the deterministic ops/record table
    (the regression-checked metric -- independent of machine speed) plus
    an informational wall-clock rate for the m=64 shared run.  Reused by
    benchmarks/perf_smoke.py; the pipeline here is aggregator-level, so
    batched transport does not apply and mode is always "scalar"."""
    table = sweep()
    arrangement_table, arrangement_peaks = arrangement_sweep()
    sizes = _query_sizes(64)
    start = time.perf_counter()
    _run_shared(sizes)
    elapsed = time.perf_counter() - start
    ops = {"%s@%d" % key: round(value, 4) for key, value in table.items()}
    ops.update({"%s@%d" % key: round(value, 4)
                for key, value in arrangement_table.items()})
    return {
        "experiment": "e2_multiquery_sharing",
        "mode": "scalar",
        "records": len(STREAM),
        "ops_per_record": ops,
        "arrangements": {
            "records": len(ARRANGEMENT_ROWS),
            "speedup_shared_vs_independent": {
                str(count): round(
                    arrangement_table[("arr-independent", count)]
                    / arrangement_table[("arr-shared", count)], 2)
                for count in ARRANGEMENT_QUERY_COUNTS},
            "peak_index_bytes": {str(count): peak for count, peak
                                 in arrangement_peaks.items()},
        },
        "shared_m64_records_per_sec": round(len(STREAM) / elapsed, 1),
        "shared_m64_seconds": round(elapsed, 4),
        "p50_round_latency_ms": None,   # no engine rounds at this level
        "p99_round_latency_ms": None,
    }, table


def test_e2_multi_query_sharing(benchmark):
    payload, table = benchmark.pedantic(build_payload,
                                        iterations=1, rounds=1)
    record_json("e2", payload)

    names = ["shared-cutty", "unshared-cutty", "unshared-eager"]
    rows = [[count] + [table[(name, count)] for name in names]
            for count in QUERY_COUNTS]
    record("e2_multiquery", format_table(
        ["#queries"] + names, rows,
        title="E2: aggregate ops/record vs concurrent queries "
              "(slide=%dms, %d records)" % (SLIDE, len(STREAM))))

    ops = payload["ops_per_record"]
    arr_rows = [[count, ops["arr-shared@%d" % count],
                 ops["arr-independent@%d" % count],
                 payload["arrangements"]["speedup_shared_vs_independent"]
                 [str(count)]]
                for count in ARRANGEMENT_QUERY_COUNTS]
    record("e2_arrangements", format_table(
        ["#queries", "shared", "independent", "speedup"], arr_rows,
        title="E2: table-query ops/record, shared arrangements vs "
              "independent plans (%d records)" % len(ARRANGEMENT_ROWS)))

    # Sharing is sublinear in m; eager is ~linear.
    growth_shared = table[("shared-cutty", 64)] / table[("shared-cutty", 1)]
    growth_eager = (table[("unshared-eager", 64)]
                    / table[("unshared-eager", 1)])
    assert growth_shared < growth_eager / 3
    # The "order of magnitudes" claim at m=64.
    assert (table[("unshared-eager", 64)]
            > 50 * table[("shared-cutty", 64)])
    # Arrangement sharing pays off by m=16 and compounds from there.
    speedups = payload["arrangements"]["speedup_shared_vs_independent"]
    assert speedups["64"] >= 3.0
    assert speedups["256"] >= speedups["64"]
