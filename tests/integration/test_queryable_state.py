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
