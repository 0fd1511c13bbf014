"""Backend parity matrix: the multiprocess shared-nothing backend must
produce the same results as the cooperative reference scheduler.

The cooperative engine is the correctness oracle (it is itself checked
against naive/batch oracles elsewhere); these tests run the *same*
program on ``backend="multiprocess"`` with two workers and assert output
equality -- over fuzzed windowed-aggregation cases, under poison-record
quarantine, across supervised crash-restores, and through the
exactly-once transactional sink protocol.
"""

import multiprocessing
import os
import time

import pytest

from repro.api.environment import Environment
from repro.connectors.sinks import TransactionalTextFileSink
from repro.runtime.engine import EngineConfig, JobFailedError
from repro.runtime.restart import FixedDelayRestart
from repro.testing.oracles import (
    WindowedEquivalenceOracle,
    run_streaming_windows,
)
from repro.testing.seeds import rng_for

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="multiprocess backend requires the fork start method")


def _mp_config(**kwargs):
    return EngineConfig(backend="multiprocess", num_workers=2, **kwargs)


# -- differential parity over fuzzed window cases ---------------------------


@pytest.mark.parametrize("exchange", ["pipe", "shm"])
@pytest.mark.parametrize("case_index", range(3))
def test_windowed_aggregation_parity(case_index, exchange):
    """Oracle-generated event-time window jobs: cooperative ==
    multiprocess, element for element -- over both exchange transports
    (pickle pipes and columnar shared-memory rings)."""
    oracle = WindowedEquivalenceOracle()
    rng = rng_for(11, "mp-parity", case_index)
    case = oracle.generate(rng, 11, case_index)
    params = case.params

    cooperative, _ = run_streaming_windows(
        list(case.stream), params["assigner"], params["aggregate"],
        params["ooo_bound"], parallelism=2, config=EngineConfig())
    multiproc, job = run_streaming_windows(
        list(case.stream), params["assigner"], params["aggregate"],
        params["ooo_bound"], parallelism=2,
        config=_mp_config(exchange=exchange))

    assert multiproc == cooperative, case.seed_line
    assert job.rounds > 0


@pytest.mark.parametrize("exchange", ["pipe", "shm"])
def test_keyed_reduce_parity_with_hash_exchange(exchange):
    """Keys hash-partitioned across the two workers: per-key totals must
    match the cooperative run exactly (and the run-stable hash_key means
    the *placement* is identical too)."""
    elements = [("user-%d" % (i % 7), i) for i in range(300)]

    def run(config):
        env = Environment(parallelism=2, config=config)
        collected = (env.from_collection(elements)
                     .key_by(lambda e: e[0])
                     .sum(lambda e: e[1])
                     .collect())
        env.execute()
        return collected.get()

    cooperative = run(EngineConfig())
    multiproc = run(_mp_config(exchange=exchange, batch_size=16))
    # sum() emits running (key, total) pairs; the final per-key total
    # must agree.
    assert _final_by_key(multiproc) == _final_by_key(cooperative)


def _final_by_key(pairs):
    final = {}
    for key, value in pairs:
        final[key] = max(final.get(key, 0), value)
    return final


# -- quarantine parity (chaos scenario) -------------------------------------


def test_quarantine_parity():
    """Poison records behind an exchange quarantine identically on both
    backends: same survivors, same dead-letter count."""

    def poison(value):
        if value % 20 == 0:
            raise ValueError("poison %d" % value)
        return value * 2

    def run(config):
        env = Environment(parallelism=2, config=config)
        collected = (env.from_collection(range(100))
                     .rebalance()
                     .map(poison, name="poison-map")
                     .collect())
        env.execute()
        return sorted(collected.get()), len(env.dead_letters)

    cooperative, coop_dead = run(EngineConfig(quarantine_threshold=10))
    multiproc, mp_dead = run(_mp_config(quarantine_threshold=10))
    assert coop_dead == 5  # 0, 20, 40, 60, 80
    assert mp_dead == coop_dead
    assert multiproc == cooperative


# -- supervised crash-restore -----------------------------------------------


def _crash_once_map(flag_path, at_value):
    """A map that crashes the hosting worker exactly once: the first
    record >= ``at_value`` processed while the flag file exists removes
    the flag and raises.  Respawned workers find no flag and proceed."""

    def fn(value):
        if value >= at_value and os.path.exists(flag_path):
            os.remove(flag_path)
            raise RuntimeError("injected crash at %r" % (value,))
        return value

    return fn


def test_restart_from_scratch_after_crash(tmp_path):
    """No checkpoints: the supervisor restarts the whole job from offset
    zero and discards the partial first attempt's collected output."""
    flag = str(tmp_path / "crash.flag")
    open(flag, "w").close()

    env = Environment(parallelism=2, config=_mp_config(
        restart_strategy=FixedDelayRestart(max_restarts=3, delay_ms=0)))
    collected = (env.from_collection(range(400))
                 .rebalance()
                 .map(_crash_once_map(flag, 200), name="crashy")
                 .collect())
    job = env.execute()

    assert not os.path.exists(flag), "crash never injected"
    assert job.restarts == 1
    assert sorted(collected.get()) == list(range(400))


def test_checkpoint_restore_after_crash(tmp_path):
    """With checkpointing: recovery resumes keyed state from the latest
    completed checkpoint and the final per-key totals are exact."""
    flag = str(tmp_path / "crash.flag")
    open(flag, "w").close()
    n, keys = 3000, 5

    env = Environment(parallelism=2, config=_mp_config(
        checkpoint_interval_ms=10,
        restart_strategy=FixedDelayRestart(max_restarts=3, delay_ms=0)))
    collected = (env.from_collection(range(n))
                 .map(_crash_once_map(flag, n // 2), name="crashy")
                 .key_by(lambda v: v % keys)
                 .fold(0, lambda acc, _value: acc + 1)
                 .collect())
    job = env.execute()

    assert not os.path.exists(flag), "crash never injected"
    assert job.restarts == 1
    # Running (key, count) pairs are at-least-once across the restore
    # cut, but the final count per key is exact: every key saw all of
    # its records exactly once through the restored fold state.
    finals = _final_by_key(collected.get())
    assert finals == {key: n // keys for key in range(keys)}


def test_transactional_sink_exactly_once_across_crash(tmp_path):
    """The 2PC sink on the multiprocess backend: a worker crash between
    checkpoints must not duplicate or lose a single committed record."""
    flag = str(tmp_path / "crash.flag")
    target = str(tmp_path / "out.txt")
    open(flag, "w").close()
    n = 3000

    env = Environment(parallelism=2, config=_mp_config(
        checkpoint_interval_ms=10,
        restart_strategy=FixedDelayRestart(max_restarts=3, delay_ms=0)))
    (env.from_collection(range(n))
        .map(_crash_once_map(flag, n // 2), name="crashy")
        .add_sink(TransactionalTextFileSink(target)))
    job = env.execute()

    assert not os.path.exists(flag), "crash never injected"
    assert job.restarts == 1
    with open(target) as handle:
        lines = [int(line) for line in handle]
    assert sorted(lines) == list(range(n)), (
        "exactly-once violated: %d lines, %d unique"
        % (len(lines), len(set(lines))))


# -- federation and surface -------------------------------------------------


def test_job_report_federates_workers():
    env = Environment(parallelism=2, config=_mp_config())
    collected = (env.from_collection(range(50))
                 .key_by(lambda v: v % 3)
                 .sum()
                 .collect())
    env.execute()
    assert collected.get()
    report = env.job_report()
    assert report["job"]["backend"] == "multiprocess"
    assert report["job"]["workers"] == 2
    assert len(report["workers"]) == 2
    operators = report["operators"]
    assert operators, "per-operator rows missing from federated report"
    assert sum(row["records_in"] for row in operators) > 0


def test_job_report_exchange_accounting():
    """In shm mode the report carries per-edge serialization accounting:
    bytes shipped, frames per transport and pickle-fallback counts."""
    env = Environment(parallelism=2, config=_mp_config(batch_size=16))
    collected = (env.from_collection(range(500))
                 .key_by(lambda v: v % 5)
                 .sum()
                 .collect())
    env.execute()
    assert collected.get()
    exchange = env.job_report()["exchange"]
    assert exchange["transport"] == "shm"
    # 2 workers -> 2 directed edges, each with the full stat row.
    assert len(exchange["edges"]) == 2
    for row in exchange["edges"]:
        assert {"src", "dst", "shm_frames", "shm_bytes", "pipe_frames",
                "pickle_fallbacks"} <= set(row)
    totals = exchange["totals"]
    assert totals["shm_records"] > 0, "no batch ever took the ring"
    assert totals["control_frames"] > 0, "EOS/watermarks must take the pipe"
    assert totals["shm_bytes"] > 0


def test_pipe_transport_remains_selectable():
    """exchange='pipe' runs without rings end to end."""
    env = Environment(parallelism=2,
                      config=_mp_config(exchange="pipe", batch_size=16))
    collected = (env.from_collection(range(100))
                 .key_by(lambda v: v % 3)
                 .sum()
                 .collect())
    env.execute()
    assert collected.get()
    exchange = env.job_report()["exchange"]
    assert exchange["transport"] == "pipe"
    assert exchange["totals"]["shm_frames"] == 0
    assert exchange["totals"]["pipe_records"] > 0


def test_job_report_parity_across_backends(tmp_path):
    """One seeded keyed-window + Cutty job, both backends: the report
    sections that describe the *job* (not the backend) agree -- equal
    per-subtask record counts, an equal Cutty section, and a checkpoint
    block with the same keys (the coordinator's ``stats()`` on both,
    including ``durable`` now that ``checkpoint_dir`` is set).  Both
    build their outcome through one routine: the fleet adds exactly its
    own sections, and the counters differ only by the watchdog's."""

    from repro.cutty import PeriodicWindows, SessionWindows
    from repro.windowing import CountAggregate, TumblingEventTimeWindows

    rng = rng_for(15, "report-parity")
    events = [((rng.randrange(7), index), index * 3)
              for index in range(4000)]

    def pace(value):
        if value[1] % 25 == 0:
            time.sleep(0.002)  # long enough for wall-clock checkpoints
        return value

    def run(name, **backend):
        config = EngineConfig(checkpoint_interval_ms=20,
                              checkpoint_dir=str(tmp_path / name),
                              observability=True, **backend)
        env = Environment(parallelism=2, config=config)
        # One source subtask: per-key arrival order is then the same on
        # both backends, which Cutty's slice accounting depends on.
        keyed = (env.from_source(lambda: events, timestamped=True,
                                 parallelism=1)
                 .map(pace, name="pace")
                 .key_by(lambda value: value[0]))
        windows = (keyed.window(TumblingEventTimeWindows.of(300))
                   .aggregate(CountAggregate()).collect())
        shared = keyed.shared_windows(
            CountAggregate, {"periodic": lambda: PeriodicWindows(600, 300),
                             "session": lambda: SessionWindows(40)}).collect()
        result = env.execute()
        assert windows.get() and shared.get()
        return result, env.job_report()

    cooperative_result, cooperative = run("cooperative")
    multiproc_result, multiproc = run("multiprocess", backend="multiprocess",
                                      num_workers=2)

    def record_counts(report):
        return {(row["operator"], row["subtask"]):
                (row["records_in"], row["records_out"])
                for row in report["operators"]}

    assert record_counts(multiproc) == record_counts(cooperative)
    assert multiproc["cutty"] == cooperative["cutty"]
    assert set(cooperative["cutty"]["cutty-window"]["queries"]) == {
        "periodic", "session"}
    for report in (cooperative, multiproc):
        assert report["checkpoints"]["completed"] >= 1
    assert set(multiproc["checkpoints"]) == set(cooperative["checkpoints"])
    assert "durable" in cooperative["checkpoints"]
    assert "last_state_entries" in cooperative["checkpoints"]
    assert "metrics" in cooperative.as_dict()
    assert set(multiproc.as_dict()) ^ set(cooperative.as_dict()) == {
        "workers", "fleet", "exchange"}
    assert (set(multiproc_result.counters) - {"watchdog_failures"}
            == set(cooperative_result.counters))


def test_interactive_state_apis_rejected():
    """Queryable state is cooperative-only; savepoints are not: the
    parent owns the checkpoint store, so it packages one like the
    cooperative engine does and a fresh fleet deploys from it."""
    def build(env, throttle):
        return (env.from_collection(range(600))
                .map(throttle, name="throttle")
                .key_by(lambda v: v % 5)
                .fold(0, lambda acc, _value: acc + 1)
                .collect())

    def throttle(value):
        # Both parities: each source subtask must outlive the first
        # trigger, or the coordinator never starts a barrier cut.
        if value % 10 < 2:
            time.sleep(0.002)
        return value

    env = Environment(parallelism=2, config=_mp_config(
        checkpoint_interval_ms=10, elements_per_step=4))
    build(env, throttle)
    job = env.execute()
    assert job.checkpoints_completed >= 1
    engine = env.last_engine
    with pytest.raises(JobFailedError, match="cooperative"):
        engine.query_state("fold", "value", 1)
    savepoint = engine.create_savepoint()

    resumed = Environment(parallelism=2, config=_mp_config())
    collected = build(resumed, lambda value: value)
    resumed.execute(from_savepoint=savepoint)
    assert _final_by_key(collected.get()) == {key: 120 for key in range(5)}


# -- supervision -------------------------------------------------------------


def test_parent_waits_instead_of_spinning_between_checkpoints():
    """The parent's supervision loop wakes on worker frames and on its
    own wait, whether or not checkpoints run: a pending checkpoint, or
    a finished source that can no longer trigger one, must not turn the
    wait into a busy loop.  Its ticks per wall second with checkpoints
    every 100 ms stay within 3x of a run without checkpoints.  The
    batch size is pinned: the supervisor is under test, not the data
    path (batched shm runs of this job are slow, see ROADMAP)."""
    def ticks_per_second(checkpoint_interval_ms):
        env = Environment(parallelism=2, config=_mp_config(
            checkpoint_interval_ms=checkpoint_interval_ms, batch_size=1))
        collected = (env.from_collection(
                         [(index % 97, index) for index in range(100_000)])
                     .key_by(lambda value: value[0])
                     .sum(lambda value: value[1])
                     .collect())
        started = time.perf_counter()
        env.execute()
        wall_s = time.perf_counter() - started
        assert len(collected.get()) == 100_000
        return env.last_engine.rounds / wall_s

    quiet = ticks_per_second(None)
    checkpointed = ticks_per_second(100)
    assert checkpointed <= 3 * quiet and quiet <= 3 * checkpointed, (
        "parent ticks/s: %.0f without checkpoints, %.0f with them every "
        "100 ms" % (quiet, checkpointed))
