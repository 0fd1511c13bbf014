"""E10 -- Asynchronous barrier snapshotting: overhead and recovery.

Reproduces the Flink'15 fault-tolerance claims on the simulated engine:

* checkpointing overhead as a function of the checkpoint interval
  (extra scheduler rounds and barrier traffic vs. a checkpoint-free
  run of the same job);
* exactly-once recovery: a mid-flight crash restores from the latest
  completed checkpoint and the final keyed state equals the no-failure
  ground truth.

Expected shape (asserted):
* overhead shrinks as the interval grows (<25% extra rounds at the
  largest interval);
* recovery yields exactly the ground-truth per-key counts.
"""

import pytest

from harness import format_table, record
from repro.api import Environment
from repro.runtime.engine import EngineConfig
from repro.runtime.faults import CRASH, FaultEvent, FaultInjector
from repro.runtime.restart import FixedDelayRestart

KEYS = 5
RECORDS = 3_000
DATA = [("k%d" % (index % KEYS), 1) for index in range(RECORDS)]
INTERVALS = [2, 10, 50]


def run_job(checkpoint_interval=None, faults=None, restart_strategy=None):
    env = Environment(
        parallelism=2,
        config=EngineConfig(checkpoint_interval_ms=checkpoint_interval,
                            elements_per_step=4, faults=faults,
                            restart_strategy=restart_strategy))
    result = (env.from_collection(DATA)
              .key_by(lambda v: v[0])
              .count()
              .collect())
    job = env.execute()
    finals = {}
    for key, running in result.get():
        finals[key] = max(finals.get(key, 0), running)
    return job, finals


def overhead_sweep():
    baseline_job, baseline_finals = run_job(checkpoint_interval=None)
    table = {"off": (baseline_job.rounds, 0, 0.0)}
    for interval in INTERVALS:
        job, finals = run_job(checkpoint_interval=interval)
        assert finals == baseline_finals
        overhead = (job.rounds - baseline_job.rounds) / baseline_job.rounds
        table["%dms" % interval] = (job.rounds, job.checkpoints_completed,
                                    overhead)
    return table


def recovery_check():
    _, ground_truth = run_job()
    faults = FaultInjector([FaultEvent(CRASH, after_checkpoints=2,
                                       when=lambda view: view.rounds > 60)])
    job, finals = run_job(checkpoint_interval=3, faults=faults,
                          restart_strategy=FixedDelayRestart(
                              max_restarts=1, delay_ms=0))
    return ground_truth, finals, job.restarts, bool(faults.applied)


def test_e10_checkpoint_overhead(benchmark):
    table = benchmark.pedantic(overhead_sweep, iterations=1, rounds=1)

    rows = [[name, rounds, checkpoints, "%.1f%%" % (overhead * 100)]
            for name, (rounds, checkpoints, overhead) in table.items()]
    record("e10_checkpointing", format_table(
        ["checkpoint interval", "scheduler rounds", "checkpoints",
         "round overhead"], rows,
        title="E10a: checkpointing overhead, keyed count over %d records"
              % RECORDS))

    overheads = [table["%dms" % interval][2] for interval in INTERVALS]
    # More frequent checkpoints cost at least as much.
    assert overheads[0] >= overheads[-1]
    assert overheads[-1] < 0.25
    # Frequent checkpointing actually completes checkpoints.
    assert table["2ms"][1] > table["50ms"][1]


def test_e10_exactly_once_recovery(benchmark):
    ground_truth, finals, restarts, crashed = benchmark.pedantic(
        recovery_check, iterations=1, rounds=1)
    record("e10_recovery", format_table(
        ["metric", "value"],
        [["crash injected", crashed],
         ["restarts", restarts],
         ["state matches ground truth", finals == ground_truth]],
        title="E10b: crash mid-job, restore from latest checkpoint"))
    assert crashed
    assert restarts == 1
    assert finals == ground_truth
