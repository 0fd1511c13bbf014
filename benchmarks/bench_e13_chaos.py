"""E13 -- Chaos overhead and recovery cost under supervision.

Measures what the failure domain costs when nothing fails, and what a
supervised recovery costs when something does:

* supervisor overhead: the chaos/restart machinery attached but idle
  must not change the round count of a failure-free run;
* recovery cost: scheduler rounds and simulated time per injected
  crash, across the restart strategies, with the final window state
  asserted identical to the failure-free run.

Expected shape (asserted):
* idle supervision is free (identical rounds);
* every supervised chaos run converges to the failure-free state;
* recovery cost grows with the number of injected crashes.

As a CLI it runs the seeded fault battery on either backend (see
:func:`main`).
"""

import pytest

from harness import format_table, record
from repro.api import Environment
from repro.runtime.engine import EngineConfig
from repro.runtime.faults import (
    CRASH,
    RESTARTING_KINDS,
    FaultEvent,
    FaultInjector,
)
from repro.runtime.restart import (
    ExponentialBackoffRestart,
    FailureRateRestart,
    FixedDelayRestart,
)
from repro.time.watermarks import WatermarkStrategy
from repro.windowing import CountAggregate, TumblingEventTimeWindows

RECORDS = 1_400
KEYS = 7
DATA = [("k%d" % (index % KEYS), index) for index in range(RECORDS)]

STRATEGIES = {
    "fixed-delay": lambda: FixedDelayRestart(max_restarts=20, delay_ms=2),
    "exp-backoff": lambda: ExponentialBackoffRestart(initial_delay_ms=1,
                                                     max_delay_ms=64),
    "failure-rate": lambda: FailureRateRestart(max_failures_per_interval=20,
                                               interval_ms=100, delay_ms=2),
}


def run_job(faults=None, restart_strategy=None):
    env = Environment(
        parallelism=2,
        config=EngineConfig(checkpoint_interval_ms=5, elements_per_step=4,
                            faults=faults, restart_strategy=restart_strategy))
    strategy = WatermarkStrategy.for_monotonic_timestamps(lambda v: v[1])
    result = (env.from_collection(DATA)
              .assign_timestamps_and_watermarks(strategy)
              .key_by(lambda v: v[0])
              .window(TumblingEventTimeWindows.of(100))
              .aggregate(CountAggregate())
              .collect())
    job = env.execute()
    return set(result.get()), job


def chaos_sweep():
    baseline, baseline_job = run_job()
    table = {"baseline (no supervision)": (baseline_job.rounds, 0)}

    # Supervisor attached but never firing: must be free.
    idle, idle_job = run_job(faults=FaultInjector([]),
                             restart_strategy=STRATEGIES["fixed-delay"]())
    assert idle == baseline and idle_job.rounds == baseline_job.rounds
    table["supervised, idle"] = (idle_job.rounds, 0)

    for crashes in (1, 2, 3):
        schedule = [FaultEvent(CRASH, target=index,
                               when=lambda view, at=60 * (index + 1):
                               view.rounds >= at)
                    for index in range(crashes)]
        for name, factory in STRATEGIES.items():
            state, job = run_job(faults=FaultInjector(schedule),
                                 restart_strategy=factory())
            assert state == baseline, (
                "%s with %d crashes diverged" % (name, crashes))
            assert job.restarts == crashes
            table["%s, %d crash(es)" % (name, crashes)] = (
                job.rounds, job.restarts)
    return baseline_job.rounds, table


# -- seeded fault battery (either backend) -----------------------------------

BATTERY_RECORDS = 1_200
#: Keys chosen so each key's records originate from one source subtask
#: (from_collection deals index % parallelism): per-key running totals
#: are then deterministic and the sink comparison can be exact.
BATTERY_KEYS = 14


def _throttle(value):
    # Sleeps on both value parities so both source subtasks stay live
    # long enough for checkpoints to trigger (triggering stops once any
    # source finishes).
    import time as _time
    if value % 4 < 2:
        _time.sleep(0.002)
    return value


def _run_battery_job(config, target):
    from repro.connectors import TransactionalTextFileSink

    env = Environment(parallelism=2, config=config)
    (env.from_collection(range(BATTERY_RECORDS))
        .map(_throttle, name="throttle")
        .key_by(lambda v: v % BATTERY_KEYS)
        .fold(0, lambda acc, value: acc + value)
        .add_sink(TransactionalTextFileSink(
            target, formatter=lambda pair: "%d:%d" % pair)))
    job = env.execute()
    with open(target) as handle:
        return sorted(line.rstrip("\n") for line in handle), job


def run_chaos_battery(seeds, workdir, backend="multiprocess", exchange="shm",
                      batch_size=1):
    """The acceptance battery: for every seed, the schedule
    ``random_fault_schedule`` draws -- crashes, stalls, dropped and
    duplicated records, each due after so many records into its victim
    -- against the job with durable checkpoints and a 2PC sink on
    ``backend``.  The output must equal the unfaulted cooperative run
    exactly, with one restart per fault that crashes on ``backend`` (on
    worker processes a stall is a SIGSTOP the supervisor must catch).
    ``exchange``/``batch_size`` select the worker transport under fire
    (columnar shm rings vs pickle pipes)."""
    import os

    oracle, _ = _run_battery_job(EngineConfig(),
                                 os.path.join(workdir, "oracle.txt"))
    workers = {}
    if backend == "multiprocess":
        workers = dict(backend=backend, num_workers=2, exchange=exchange)
    rows = []
    failures = 0
    for seed in seeds:
        faults = FaultInjector.from_seed(seed, num_faults=2,
                                         first_records=50, last_records=400)
        config = EngineConfig(
            batch_size=batch_size, checkpoint_interval_ms=40,
            checkpoint_dir=os.path.join(workdir, "chk-%d" % seed),
            restart_strategy=FixedDelayRestart(max_restarts=10, delay_ms=0),
            faults=faults, **workers)
        lines, job = _run_battery_job(
            config, os.path.join(workdir, "out-%d.txt" % seed))
        crashes = sum(1 for event in faults.applied
                      if event.kind in RESTARTING_KINDS[backend])
        converged = lines == oracle and job.restarts == crashes
        failures += 0 if converged else 1
        rows.append([seed,
                     " ".join("%s@%d" % (event.kind, event.after_records)
                              for event in faults.applied) or "none",
                     job.restarts, "ok" if converged else "DIVERGED"])
    return rows, failures


def test_e13_chaos_overhead(benchmark):
    baseline_rounds, table = benchmark.pedantic(chaos_sweep,
                                                iterations=1, rounds=1)

    rows = [[name, rounds, restarts,
             "%.1f%%" % (100.0 * (rounds - baseline_rounds)
                         / baseline_rounds)]
            for name, (rounds, restarts) in table.items()]
    record("e13_chaos", format_table(
        ["scenario", "scheduler rounds", "restarts", "round overhead"], rows,
        title="E13: supervised recovery cost, keyed windows over %d records"
              % RECORDS))

    one = table["fixed-delay, 1 crash(es)"][0]
    three = table["fixed-delay, 3 crash(es)"][0]
    # Each recovery replays from the latest checkpoint: more crashes,
    # more replayed rounds.
    assert three >= one


def main(argv=None):
    """CLI gate: ``python benchmarks/bench_e13_chaos.py --backend
    cooperative|multiprocess --seeds 20`` runs the seeded fault battery
    (on worker processes: real SIGKILL/SIGSTOP; durable checkpoints, 2PC
    sink) and fails unless every seed converges to the unfaulted output
    exactly, with one restart per crashing fault."""
    import argparse
    import multiprocessing
    import sys
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", default="multiprocess",
                        choices=("cooperative", "multiprocess"))
    parser.add_argument("--seeds", type=int, default=20,
                        help="number of chaos seeds to sweep (1..N)")
    parser.add_argument("--exchange", default="shm",
                        choices=("pipe", "shm"),
                        help="worker data transport under fire "
                             "(default: columnar shm rings)")
    parser.add_argument("--batch-size", type=int, default=1,
                        help="record batch size; >1 puts columnar "
                             "frames on the rings mid-kill")
    args = parser.parse_args(argv)

    if (args.backend == "multiprocess"
            and "fork" not in multiprocessing.get_all_start_methods()):
        print("SKIP: multiprocess backend requires the fork start method")
        return 0
    with tempfile.TemporaryDirectory(prefix="e13-chaos-") as workdir:
        rows, failures = run_chaos_battery(
            range(1, args.seeds + 1), workdir, backend=args.backend,
            exchange=args.exchange, batch_size=args.batch_size)
    print(format_table(
        ["seed", "faults fired", "restarts", "parity"], rows,
        title="E13: seeded fault battery, %s backend, %d seeds, "
              "exchange=%s" % (args.backend, args.seeds, args.exchange)))
    if failures:
        print("FAIL: %d of %d seeds diverged from the unfaulted run"
              % (failures, args.seeds))
        return 1
    print("ok: %d seeds, all byte-identical to the unfaulted run"
          % args.seeds)
    return 0


if __name__ == "__main__":
    import sys
    sys.exit(main())
