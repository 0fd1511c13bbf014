"""E5 -- End-to-end engine throughput: shared vs. unshared windowing,
and batched vs. scalar record transport.

The wall-clock complement to E2: the same three concurrent sliding
window queries run through the full pipeline (source -> keyBy -> window
operator -> sink), once as three standard WindowOperators and once as a
single shared CuttyWindowOperator.

Expected shape (asserted): the shared operator sustains at least 1.5x
the records/second of the unshared job (the gap widens with more/larger
queries; three modest queries keep this bench fast).

The batched-vs-scalar bench measures the record-batch dataflow on a
stateless pipeline with real channels (rebalance + global edges) and
asserts the >= 3x records/sec win; both modes' numbers land in the
committed ``BENCH_e5.json`` baseline the CI perf-smoke job diffs.
"""

import time

import pytest

from harness import RoundLatencyProbe, format_table, record, record_json
from repro.api import Environment
from repro.api.stream import DataStream
from repro.cutty import CuttyWindowOperator, PeriodicWindows
from repro.runtime.engine import EngineConfig
from repro.windowing import SlidingEventTimeWindows, SumAggregate

QUERIES = [(1000, 100), (1500, 100), (2000, 100)]
EVENTS = [(1, ts) for ts in range(8_000)]

#: The batched-transport workload: large enough that per-element channel
#: overhead dominates the scalar run, with step budget and channel
#: capacity scaled so whole batches fit through each round.
BATCH_RECORDS = 60_000
BATCH_SIZE = 1024
BATCH_ENGINE_OPTS = dict(elements_per_step=2048, channel_capacity=16_384)


def run_unshared():
    env = Environment()
    stream = env.from_collection(EVENTS, timestamped=True)
    results = []
    for size, slide in QUERIES:
        results.append(
            stream.key_by(lambda v: 0)
            .window(SlidingEventTimeWindows.of(size, slide))
            .aggregate(SumAggregate(), name="win-%d" % size)
            .collect())
    env.execute()
    return sum(len(result.get()) for result in results)


def run_shared():
    env = Environment()
    keyed = (env.from_collection(EVENTS, timestamped=True)
             .key_by(lambda v: 0))
    node = keyed._connect_keyed(
        "cutty",
        lambda: CuttyWindowOperator(
            aggregate_factory=SumAggregate,
            spec_factories={
                ("q%d" % size): (lambda s=size, sl=slide:
                                 PeriodicWindows(s, sl))
                for size, slide in QUERIES}))
    results = DataStream(env, node).collect()
    env.execute()
    return len(results.get())


def _run_transport_mode(batch_size, observability=False):
    """One stateless pipeline run; returns (payload dict, output, env)."""
    probe = RoundLatencyProbe()
    config = EngineConfig(batch_size=batch_size, cancel_hook=probe,
                          observability=observability,
                          **BATCH_ENGINE_OPTS)
    env = Environment(config=config)
    result = (env.from_collection(list(range(BATCH_RECORDS)))
              .rebalance()
              .map(lambda x: x + 1)
              .filter(lambda x: x % 2 == 0)
              .map(lambda x: x * 3)
              .global_()
              .collect())
    start = time.perf_counter()
    env.execute()
    elapsed = time.perf_counter() - start
    payload = {
        "mode": "batched" if batch_size > 1 else "scalar",
        "batch_size": batch_size,
        "records": BATCH_RECORDS,
        "seconds": round(elapsed, 4),
        "records_per_sec": round(BATCH_RECORDS / elapsed, 1),
        "p50_round_latency_ms": round(probe.p50_ms(), 4),
        "p99_round_latency_ms": round(probe.p99_ms(), 4),
    }
    return payload, result.get(), env


def run_batched_vs_scalar(rounds=3, observability=False):
    """Both transport modes on the identical pipeline; the payload that
    becomes BENCH_e5.json.  Reused by benchmarks/perf_smoke.py.

    Each mode runs ``rounds`` times and reports its fastest round (the
    usual noise-floor treatment: scheduler hiccups only ever slow a run
    down), so the gated speedup ratio is stable across runs."""
    scalar, scalar_out, _ = _run_transport_mode(1, observability)
    batched, batched_out, _ = _run_transport_mode(BATCH_SIZE, observability)
    # Multiset equality: the global sink merges two rebalanced upstream
    # subtasks, and batching only changes that merge's granularity.
    assert sorted(batched_out) == sorted(scalar_out)
    for _ in range(rounds - 1):
        candidate, _, _ = _run_transport_mode(1, observability)
        if candidate["records_per_sec"] > scalar["records_per_sec"]:
            scalar = candidate
        candidate, _, _ = _run_transport_mode(BATCH_SIZE, observability)
        if candidate["records_per_sec"] > batched["records_per_sec"]:
            batched = candidate
    speedup = batched["records_per_sec"] / scalar["records_per_sec"]
    return {
        "experiment": "e5_batched_vs_scalar",
        "pipeline": "source -> rebalance -> map -> filter -> map "
                    "-> global -> collect",
        "engine": dict(BATCH_ENGINE_OPTS),
        "observability": bool(observability),
        "modes": {"scalar": scalar, "batched": batched},
        "speedup_batched_vs_scalar": round(speedup, 2),
    }


def test_e5_batched_vs_scalar(benchmark):
    payload = benchmark.pedantic(run_batched_vs_scalar,
                                 iterations=1, rounds=1)
    scalar = payload["modes"]["scalar"]
    batched = payload["modes"]["batched"]
    record("e5_batched_transport", format_table(
        ["mode", "records/s", "p50 round ms", "p99 round ms", "seconds"],
        [[mode["mode"], mode["records_per_sec"],
          mode["p50_round_latency_ms"], mode["p99_round_latency_ms"],
          mode["seconds"]] for mode in (scalar, batched)],
        title="E5: batched vs scalar record transport, %d records "
              "(batch_size=%d)" % (BATCH_RECORDS, BATCH_SIZE)))
    record_json("e5", payload)
    assert payload["speedup_batched_vs_scalar"] >= 3.0


# -- multiprocess backend scaling (CLI gate) --------------------------------

#: Compute-bound workload for the backend comparison: enough per-record
#: work that the shared-nothing backend's win is parallel CPU, not
#: pipe-transport accounting.
MP_RECORDS = 40_000
MP_HASH_ROUNDS = 400


def _heavy(value):
    acc = value & 0xFF
    for _ in range(MP_HASH_ROUNDS):
        acc = (acc * 1000003 ^ value) % 1000000007
    return acc


def run_backend_throughput(backend, workers, records=MP_RECORDS):
    """The identical compute-heavy pipeline on either backend; returns
    a payload with records/sec.  Parallelism equals ``workers`` in both
    cases -- cooperative interleaves the subtasks on one core, the
    multiprocess backend shards them across OS processes."""
    kwargs = dict(batch_size=256, **BATCH_ENGINE_OPTS)
    if backend == "multiprocess":
        config = EngineConfig(backend="multiprocess", num_workers=workers,
                              **kwargs)
    else:
        config = EngineConfig(**kwargs)
    env = Environment(parallelism=workers, config=config)
    result = (env.from_collection(list(range(records)))
              .rebalance()
              .map(_heavy, name="heavy")
              .filter(lambda x: x % 64 == 0)
              .collect())
    start = time.perf_counter()
    env.execute()
    elapsed = time.perf_counter() - start
    survivors = len(result.get())
    assert survivors > 0
    return {
        "backend": backend,
        "workers": workers,
        "records": records,
        "seconds": round(elapsed, 4),
        "records_per_sec": round(records / elapsed, 1),
        "survivors": survivors,
    }


def run_backend_scaling(workers, records=MP_RECORDS, rounds=2):
    """Cooperative baseline vs multiprocess; best-of-``rounds`` each."""
    def best(backend):
        top = run_backend_throughput(backend, workers, records)
        for _ in range(rounds - 1):
            candidate = run_backend_throughput(backend, workers, records)
            if candidate["records_per_sec"] > top["records_per_sec"]:
                top = candidate
        return top

    cooperative = best("cooperative")
    multiproc = best("multiprocess")
    assert multiproc["survivors"] == cooperative["survivors"]
    return {
        "experiment": "e5_backend_scaling",
        "pipeline": "source -> rebalance -> heavy map -> filter -> collect",
        "modes": {"cooperative": cooperative, "multiprocess": multiproc},
        "speedup_multiprocess_vs_cooperative": round(
            multiproc["records_per_sec"]
            / cooperative["records_per_sec"], 2),
    }


# -- columnar shm exchange vs pickle pipes (CLI gate) ------------------------

#: Exchange-bound workload for the transport comparison: a trivial
#: filter keeps per-record compute negligible, so nearly every cycle is
#: source -> exchange -> kernel; the selective predicate keeps the
#: collect-side pipe traffic (identical in both modes) out of the
#: measurement.
EXCHANGE_RECORDS = 400_000
EXCHANGE_ENGINE_OPTS = dict(
    batch_size=1024, elements_per_step=2048, channel_capacity=16_384)


def run_exchange_throughput(exchange, workers, records=EXCHANGE_RECORDS):
    """One run of the exchange-bound pipeline over the given transport;
    the payload carries the job report's serialization accounting."""
    config = EngineConfig(backend="multiprocess", num_workers=workers,
                          exchange=exchange, **EXCHANGE_ENGINE_OPTS)
    env = Environment(parallelism=workers, config=config)
    result = (env.from_collection(range(records))
              .rebalance()
              .filter(lambda v: v % 1000 == 7)
              .collect())
    start = time.perf_counter()
    env.execute()
    elapsed = time.perf_counter() - start
    survivors = sorted(result.get())
    assert survivors == [v for v in range(records) if v % 1000 == 7]
    report = env.job_report().get("exchange", {})
    return {
        "exchange": exchange,
        "workers": workers,
        "records": records,
        "seconds": round(elapsed, 4),
        "records_per_sec": round(records / elapsed, 1),
        "totals": report.get("totals", {}),
    }


def run_exchange_comparison(workers=4, records=EXCHANGE_RECORDS, rounds=3):
    """Pickle pipes vs columnar shm rings on the identical pipeline;
    best-of-``rounds`` per transport, with the transports interleaved
    round by round so slow drift on a loaded machine (page cache,
    competing processes) hits both legs alike.  The ratio is the
    committed, CI-gated number: both runs share a machine, so it
    cancels out absolute CPU speed."""
    best = {}
    for _ in range(rounds):
        for exchange in ("pipe", "shm"):
            candidate = run_exchange_throughput(exchange, workers, records)
            top = best.get(exchange)
            if (top is None
                    or candidate["records_per_sec"]
                    > top["records_per_sec"]):
                best[exchange] = candidate
    pipe, shm = best["pipe"], best["shm"]
    return {
        "experiment": "e5_exchange_transport",
        "pipeline": "source -> rebalance -> filter -> collect",
        "engine": {k: v for k, v in EXCHANGE_ENGINE_OPTS.items()
                   if v is not None},
        "modes": {"pipe": pipe, "shm": shm},
        "speedup_shm_vs_pipe": round(
            shm["records_per_sec"] / pipe["records_per_sec"], 2),
    }


def main(argv=None):
    """CLI gate: ``python benchmarks/bench_e5_throughput.py --backend
    multiprocess --workers 4`` asserts the shared-nothing backend beats
    single-process batched throughput by >= 2.5x AND the columnar shm
    exchange beats the pickle-pipe transport by >= 2x."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", default="multiprocess",
                        choices=("cooperative", "multiprocess"))
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--records", type=int, default=MP_RECORDS)
    parser.add_argument("--min-speedup", type=float, default=2.5)
    parser.add_argument("--min-exchange-speedup", type=float, default=2.0)
    args = parser.parse_args(argv)

    if args.backend == "cooperative":
        payload = run_backend_throughput("cooperative", args.workers,
                                         args.records)
        print("cooperative: %(records_per_sec).1f records/s "
              "(%(seconds).2fs for %(records)d records)" % payload)
        return 0

    payload = run_backend_scaling(args.workers, args.records)
    coop = payload["modes"]["cooperative"]
    multi = payload["modes"]["multiprocess"]
    speedup = payload["speedup_multiprocess_vs_cooperative"]
    print(format_table(
        ["backend", "workers", "records/s", "seconds"],
        [[mode["backend"], mode["workers"], mode["records_per_sec"],
          mode["seconds"]] for mode in (coop, multi)],
        title="E5: multiprocess backend scaling, %d records"
              % args.records))
    print("speedup: %.2fx (gate: >= %.1fx)" % (speedup, args.min_speedup))
    record_json("e5_backend_scaling", payload)
    failed = False
    if speedup < args.min_speedup:
        print("FAIL: multiprocess speedup below gate")
        failed = True

    exchange = run_exchange_comparison(args.workers)
    pipe = exchange["modes"]["pipe"]
    shm = exchange["modes"]["shm"]
    ratio = exchange["speedup_shm_vs_pipe"]
    print(format_table(
        ["exchange", "records/s", "seconds", "shm MiB", "fallbacks"],
        [[mode["exchange"], mode["records_per_sec"], mode["seconds"],
          round(mode["totals"].get("shm_bytes", 0) / 1048576.0, 1),
          mode["totals"].get("pickle_fallbacks", 0)]
         for mode in (pipe, shm)],
        title="E5: exchange transport, %d records, %d workers"
              % (EXCHANGE_RECORDS, args.workers)))
    print("exchange speedup: %.2fx (gate: >= %.1fx)"
          % (ratio, args.min_exchange_speedup))
    record_json("e5_exchange_transport", exchange)
    if ratio < args.min_exchange_speedup:
        print("FAIL: shm exchange speedup below gate")
        failed = True
    return 1 if failed else 0


def test_e5_unshared_window_operators(benchmark):
    emitted = benchmark.pedantic(run_unshared, iterations=1, rounds=3)
    assert emitted > 0
    benchmark.extra_info["windows_emitted"] = emitted


def test_e5_shared_cutty_operator(benchmark):
    emitted = benchmark.pedantic(run_shared, iterations=1, rounds=3)
    assert emitted > 0
    benchmark.extra_info["windows_emitted"] = emitted


def test_e5_speedup_summary(benchmark):
    import time

    def measure():
        start = time.perf_counter()
        unshared_windows = run_unshared()
        unshared_s = time.perf_counter() - start
        start = time.perf_counter()
        shared_windows = run_shared()
        shared_s = time.perf_counter() - start
        return unshared_s, shared_s, unshared_windows, shared_windows

    unshared_s, shared_s, unshared_windows, shared_windows = \
        benchmark.pedantic(measure, iterations=1, rounds=1)

    rate_unshared = len(EVENTS) / unshared_s
    rate_shared = len(EVENTS) / shared_s
    record("e5_throughput", format_table(
        ["variant", "records/s", "windows emitted", "seconds"],
        [["unshared (3x WindowOperator)", rate_unshared,
          unshared_windows, unshared_s],
         ["shared (1x CuttyWindowOperator)", rate_shared,
          shared_windows, shared_s]],
        title="E5: end-to-end throughput, 3 sliding-window queries, "
              "20k records"))

    # Same logical output volume...
    assert shared_windows == unshared_windows
    # ...at materially higher throughput.
    assert rate_shared > rate_unshared * 1.5


if __name__ == "__main__":
    import sys
    sys.exit(main())
