"""Queryable state: probing the live keyed view of a running job."""

import pytest

from repro.api import Environment
from repro.runtime.engine import EngineConfig


def test_query_final_keyed_state():
    env = Environment(parallelism=3)
    data = [("k%d" % (i % 4), 1) for i in range(400)]
    (env.from_collection(data)
        .key_by(lambda v: v[0])
        .count(name="live-count")
        .collect())
    env.execute()
    engine = env.last_engine
    for key_index in range(4):
        assert engine.query_state("live-count", "rolling-fold",
                                  "k%d" % key_index) == 100


def test_query_mid_job_view_is_fresh():
    """Probe the view while the job is still running (cancel hook)."""
    observed = {}

    def probe(engine, rounds):
        if rounds == 30:
            observed["value"] = engine.query_state(
                "live-count", "rolling-fold", "k0", default=0)
            return True  # cancel after probing
        return False

    env = Environment(
        parallelism=2,
        config=EngineConfig(elements_per_step=4, cancel_hook=probe))
    data = [("k0", 1) for _ in range(10_000)]
    (env.from_collection(data)
        .key_by(lambda v: v[0])
        .count(name="live-count")
        .collect())
    job = env.execute()
    assert job.cancelled
    # Mid-flight the count is partial but already non-trivial.
    assert 0 < observed["value"] < 10_000


def test_a_job_cancelled_before_its_first_round_reports_nothing_done():
    """Round 0 opens the first deployment, so a cancel before it finds
    operators built but not opened: queries and report rows read as a
    job that has not started."""
    observed = {}

    def cancel_at_once(engine, rounds):
        observed["value"] = engine.query_state(
            "live-count", "rolling-fold", "k0", default=0)
        return True

    env = Environment(config=EngineConfig(cancel_hook=cancel_at_once))
    history = [("k0", ts) for ts in range(50)]
    live = [("k0", ts) for ts in range(50, 100)]
    (env.read(history)
        .then_stream(lambda: live, cutover=49, timestamp_fn=lambda v: v[1])
        .key_by(lambda v: v[0])
        .count(name="live-count")
        .collect())
    job = env.execute()
    assert job.cancelled and observed["value"] == 0
    cutover, = env.job_report()["cutover"]
    assert cutover["history_emitted"] == cutover["replayed_records"] == 0

    env = Environment(config=EngineConfig(cancel_hook=lambda *_: True))
    orders = env.table([{"user": "u%d" % (i % 4), "n": i} for i in range(50)])
    orders.group_by("user").agg(count=("count", None)).collect()
    orders.group_by("user").agg(total=("sum", "n")).collect()
    assert env.execute().cancelled
    assert env.job_report()["arrangements"]


def test_query_unknown_operator_raises():
    env = Environment()
    env.from_collection([1]).collect()
    env.execute()
    with pytest.raises(KeyError, match="no operator named"):
        env.last_engine.query_state("ghost", "state", "k")


def test_query_missing_key_returns_default():
    env = Environment()
    (env.from_collection([("a", 1)])
        .key_by(lambda v: v[0])
        .count(name="live-count")
        .collect())
    env.execute()
    assert env.last_engine.query_state("live-count", "rolling-fold",
                                       "never-seen", default=-1) == -1
