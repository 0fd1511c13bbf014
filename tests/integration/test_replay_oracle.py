"""Replay-determinism checks through the differential harness's replay
oracle: a job crash-restored from its latest checkpoint must produce the
same output set as the uninterrupted run (the collect sink is
at-least-once across restarts, hence sets) -- and so must the same job
stopped there, saved, and resumed in a fresh environment with the window
vertex at the other parallelism, on either backend.

Includes the directed regression for the watermark-restore fix: the
timestamps/watermarks operator must rebuild its generator on restore so
that replayed out-of-order records are not dropped as late against the
pre-crash high-water mark.
"""

import multiprocessing

import pytest

from repro.runtime.engine import EngineConfig
from repro.testing.deployment import Deployment
from repro.testing.oracles import (
    ReplayOracle,
    crash_once,
    run_streaming_windows,
)
from repro.testing.seeds import rng_for

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


@pytest.mark.parametrize("case_index", range(5))
def test_replay_oracle_fuzzed_cases(case_index):
    oracle = ReplayOracle()
    rng = rng_for(0, oracle.name, case_index)
    case = oracle.generate(rng, 0, case_index)
    mismatch = oracle.check(case)
    assert mismatch is None, "%s\n%s" % (case.seed_line, mismatch)


def _on_worker_processes(case_index, spec):
    """Seed-0 replay case ``case_index`` on the deployment ``spec``,
    without its round-robin exchange: that keeps a case on the
    cooperative scheduler, the only one that repeats an interleaving
    (see ``test_rebalance_lateness_differs_between_backends``)."""
    oracle = ReplayOracle()
    case = oracle.generate(rng_for(0, oracle.name, case_index), 0,
                           case_index)
    case = oracle.case_from(dict(case.params, rebalance=False), case.stream,
                            0, case_index, Deployment.parse(spec))
    assert case.deployment.backend == "multiprocess"
    return oracle, case


@pytest.mark.skipif(not HAS_FORK, reason="multiprocess backend requires "
                                         "the fork start method")
@pytest.mark.parametrize("case_index", range(8))
def test_replay_oracle_resumes_on_worker_processes(case_index):
    """Stopped on the cooperative scheduler, resumed on two workers."""
    oracle, case = _on_worker_processes(case_index, "multiprocess,workers=2")
    mismatch = oracle.check(case)
    assert mismatch is None, "%s\n%s" % (case.seed_line, mismatch)


@pytest.mark.skipif(not HAS_FORK, reason="multiprocess backend requires "
                                         "the fork start method")
@pytest.mark.parametrize("case_index", range(8))
def test_replay_oracle_crashes_on_worker_processes(case_index):
    """Crashed on two workers that exchange over pipes, in batches."""
    oracle, case = _on_worker_processes(
        case_index, "multiprocess,workers=2,exchange=pipe,batch=16")
    mismatch = oracle.check(case)
    assert mismatch is None, "%s\n%s" % (case.seed_line, mismatch)


# -- known divergences (ROADMAP item 11) ---------------------------------------
#
# Late drops that depend on scheduling: a record already late at its
# watermark generator is admitted or dropped downstream depending on how
# the other inputs' watermarks interleave.  All of these cases route
# through a round-robin exchange ahead of the watermark operator.


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 11: lateness decided behind a "
                          "round-robin exchange")
@pytest.mark.parametrize("seed,case_index,batch",
                         [(0, 122, 1), (0, 203, 1), (0, 213, 1),
                          (0, 249, 16), (2, 298, 16),
                          (1, 53, 1), (2, 298, 64)])
def test_known_replay_divergence(seed, case_index, batch):
    oracle = ReplayOracle()
    case = oracle.deploy(
        oracle.generate(rng_for(seed, oracle.name, case_index), seed,
                        case_index),
        Deployment(batch_size=batch))
    mismatch = oracle.check(case)
    assert mismatch is None, "%s\n%s" % (case.seed_line, mismatch)


def test_watermark_restore_regression_directed():
    """Out-of-order records straddle the crash point: if restore kept
    the pre-crash max timestamp, the replayed stragglers would re-emit
    the old high-water mark and the session's tail would be dropped as
    late, changing the window set."""
    gap = 10
    elements = []
    ts = 0
    for burst in range(30):
        ts += 3
        elements.append(("k0", burst, ts + 4))   # runs ahead ...
        elements.append(("k1", burst, ts))       # ... straggler, 4 behind
    assigner = {"kind": "session", "gap": gap}

    clean_config = EngineConfig(checkpoint_interval_ms=3,
                                elements_per_step=2)
    clean, clean_job = run_streaming_windows(
        elements, assigner, "sum", ooo_bound=4, parallelism=2,
        config=clean_config)
    assert clean, "directed stream produced no windows"

    for fraction in (0.3, 0.6, 0.85):
        faults = crash_once(
            min_checkpoints=1,
            at_round=max(5, int(clean_job.rounds * fraction)))
        crash_config = EngineConfig(checkpoint_interval_ms=3,
                                    elements_per_step=2, faults=faults)
        replayed, _ = run_streaming_windows(
            elements, assigner, "sum", ooo_bound=4, parallelism=2,
            config=crash_config)
        assert faults.applied, (
            "crash never injected at fraction %s" % fraction)
        assert set(replayed.items()) == set(clean.items()), (
            "replay diverged at crash fraction %s" % fraction)


def test_rebalance_cursor_in_checkpoint_and_replay_directed():
    """A round-robin exchange feeds the stateful watermark operator.
    The rebalance cursor must (a) appear in the checkpoint snapshots and
    (b) be restored on recovery so the replayed routing matches the
    original run -- otherwise per-subtask watermark state and the
    replayed record placement disagree."""
    from repro.api.environment import Environment
    from repro.runtime.restart import FixedDelayRestart

    elements = [("k%d" % (i % 3), i, i * 2) for i in range(120)]
    assigner = {"kind": "tumbling", "size": 20}

    # (a) the cursor is captured in the cut.
    env = Environment(parallelism=2, config=EngineConfig(
        checkpoint_interval_ms=3, elements_per_step=2))
    collected, _ = _run_rebalanced(env, elements, assigner)
    store = env.last_engine.checkpoint_store
    assert len(store) > 0, "no checkpoints completed"
    cursors = [state
               for snapshot in store.latest.snapshots.values()
               for state in snapshot.partitioners.values()
               if state and "next" in state]
    assert cursors, "no rebalance cursor found in any task snapshot"
    assert any(state["next"] > 0 for state in cursors)
    clean = set(collected.get())

    # (b) crash-restore replays identically.
    for fraction in (0.35, 0.7):
        faults = crash_once(min_checkpoints=1, at_round=8)
        env = Environment(parallelism=2, config=EngineConfig(
            checkpoint_interval_ms=3, elements_per_step=2, faults=faults,
            restart_strategy=FixedDelayRestart(max_restarts=3,
                                               delay_ms=0)))
        replayed, job = _run_rebalanced(env, elements, assigner)
        assert faults.applied
        assert set(replayed.get()) == clean, (
            "rebalance replay diverged at fraction %s" % fraction)


def _run_rebalanced(env, elements, assigner_params):
    from repro.testing.oracles import make_assigner
    from repro.time.watermarks import WatermarkStrategy

    strategy = WatermarkStrategy.for_bounded_out_of_orderness(
        lambda element: element[2], 4)
    collected = (env.from_collection(elements)
                 .rebalance()
                 .assign_timestamps_and_watermarks(strategy)
                 .key_by(lambda element: element[0])
                 .window(make_assigner(assigner_params))
                 .reduce(lambda a, b: (a[0], a[1] + b[1], max(a[2], b[2])))
                 .collect())
    job = env.execute()
    return collected, job


@pytest.mark.skipif(not HAS_FORK, reason="multiprocess backend requires "
                                         "the fork start method")
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 11: lateness decided behind a "
                          "round-robin exchange")
def test_rebalance_lateness_differs_between_backends():
    """Seed-0 replay case 14 (``rebalance``, parallelism 2) run clean on
    the cooperative scheduler and on two workers.  Which records are
    late behind the exchange depends on how the source subtasks
    interleave, so the answers differ with no fault at all; this is why
    ``ReplayOracle.fit`` keeps ``rebalance`` cases cooperative."""
    oracle = ReplayOracle()
    case = oracle.generate(rng_for(0, oracle.name, 14), 0, 14)
    params = case.params
    assert params["rebalance"] and params["parallelism"] == 2

    def clean(spec):
        return run_streaming_windows(
            list(case.stream), params["assigner"], params["aggregate"],
            params["ooo_bound"], params["parallelism"],
            Deployment.parse(spec).config(), rebalance=True)[0]

    assert clean("multiprocess,workers=2") == clean("cooperative")
