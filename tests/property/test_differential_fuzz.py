"""Tier-1 differential fuzz pass: a small, fixed-seed slice of what the
nightly ``python -m repro.testing.fuzz`` job runs with a big budget.

Also tests the harness *itself*: the mutation smoke proves that a
deliberately corrupted strategy is caught, attributed by name, and
shrunk to a tiny repro (a fuzzer that cannot fail is worthless), and the
shrinker's minimization is checked against a synthetic oracle with a
known minimal failure.
"""

import random

import pytest

from repro.testing.deployment import Deployment
from repro.testing.fuzz import build_oracles, run_fuzz
from repro.testing.oracles import (
    DEFAULT_ORACLE_NAMES,
    ORACLE_FACTORIES,
    Case,
    Oracle,
    make_oracle,
)
from repro.testing.seeds import derive_seed, rng_for, root_seed
from repro.testing.shrinker import format_repro, shrink

ROOT = root_seed(default=0)  # REPRO_SEED overridable, default pinned


@pytest.mark.parametrize("oracle_name", DEFAULT_ORACLE_NAMES)
def test_bounded_fuzz_pass_per_oracle(oracle_name):
    oracle = make_oracle(oracle_name)
    for index in range(8):
        rng = rng_for(ROOT, oracle.name, index)
        case = oracle.generate(rng, ROOT, index)
        mismatch = oracle.check(case)
        assert mismatch is None, "%s\n%s" % (case.seed_line, mismatch)


def test_fuzz_runner_green_on_main():
    report = run_fuzz(ROOT, build_oracles(list(DEFAULT_ORACLE_NAMES)),
                      budget_cases=15)
    assert report.ok, "\n\n".join(
        failure.detail for failure in report.failures)
    assert report.cases_run == 15
    assert set(report.per_oracle) == set(DEFAULT_ORACLE_NAMES)


def test_mutation_smoke_catches_and_attributes_corrupted_strategy():
    # Corrupting the lazy strategy's emitted values must produce a
    # shrunk failing case that names the strategy and the seed.
    report = run_fuzz(ROOT, build_oracles(["cutty"], mutate="lazy"),
                      budget_cases=10, max_failures=2)
    assert not report.ok
    failure = report.failures[0]
    assert "strategy=lazy" in failure.detail
    assert "seed=%d" % ROOT in failure.seed_line
    assert "oracle=cutty" in failure.seed_line
    # The emitted repro is a standalone pytest function; against the
    # UNMUTATED system it must pass (the injected bug isn't in main).
    namespace = {}
    exec(compile(failure.repro, "<repro>", "exec"), namespace)
    test_fn = next(value for name, value in namespace.items()
                   if name.startswith("test_shrunk_"))
    test_fn()


def test_mutation_smoke_shrinks_to_small_repro():
    mutated = make_oracle("cutty", mutate="lazy")
    clean = make_oracle("cutty")
    for index in range(10):
        rng = rng_for(ROOT, mutated.name, index)
        case = mutated.generate(rng, ROOT, index)
        detail = mutated.check(case)
        if detail is not None:
            break
    else:
        pytest.fail("mutated lazy strategy never diverged in 10 cases")
    shrunk = shrink(mutated, case, detail)
    assert len(shrunk.case.stream) <= 4  # tiny, not the raw random stream
    assert "strategy=lazy" in shrunk.detail
    assert mutated.check(shrunk.case) is not None
    assert clean.check(shrunk.case) is None


class _ThresholdOracle(Oracle):
    """Synthetic oracle with a known one-element minimal failure: fails
    iff any stream value exceeds 9."""

    name = "threshold"

    def generate(self, rng, root, index):
        stream = [(rng.randint(0, 20), ts) for ts in range(rng.randint(1, 40))]
        return Case(self.name, root, index, {}, stream)

    def check(self, case):
        bad = [value for value, _ in case.stream if value > 9]
        if bad:
            return "threshold exceeded: %r" % bad[:3]
        return None


def test_shrinker_minimizes_to_single_element():
    oracle = _ThresholdOracle()
    rng = random.Random(derive_seed(ROOT, "shrinker-unit"))
    case = None
    while case is None or oracle.check(case) is None:
        case = oracle.generate(rng, ROOT, 0)
    detail = oracle.check(case)
    result = shrink(oracle, case, detail)
    assert len(result.case.stream) == 1
    assert result.case.stream[0][0] > 9
    assert "threshold exceeded" in result.detail


def test_shrinker_zeroes_irrelevant_values():
    oracle = _ThresholdOracle()
    case = Case(oracle.name, ROOT, 0, {}, [(3, 0), (15, 1)])
    result = shrink(oracle, case, oracle.check(case))
    assert result.case.stream == [(15, 1)]


class _DeploymentOracle(Oracle):
    """Synthetic engine oracle that fails on the deployments ``fails``
    accepts, whatever the stream."""

    name = "deployment-probe"

    def __init__(self, fails=lambda config: True):
        self.fails = fails

    def generate(self, rng, root, index):
        return self.case_from({}, [(value, value) for value in range(9)],
                              root, index)

    def check(self, case):
        config = case.deployment.config(len(case.stream))
        if self.fails(config):
            return "fails on %s" % case.deployment
        return None


FULL_DEPLOYMENT = "multiprocess,workers=2,exchange=pipe,batch=64,crash=0.5"


def test_shrinker_shrinks_to_the_one_failing_deployment():
    oracle = _DeploymentOracle(lambda config: (
        config.backend == "multiprocess" and config.batch_size == 64))
    case = oracle.deploy(oracle.generate(None, ROOT, 0),
                         Deployment.parse(FULL_DEPLOYMENT))
    result = shrink(oracle, case, oracle.check(case))
    assert result.case.deployment == Deployment("multiprocess",
                                                batch_size=64)
    assert result.case.deployment.crash is None
    assert len(result.case.stream) == 1


def test_shrinker_shrinks_a_failure_everywhere_to_the_default():
    oracle = _DeploymentOracle()
    case = oracle.deploy(oracle.generate(None, ROOT, 0),
                         Deployment.parse(FULL_DEPLOYMENT))
    result = shrink(oracle, case, oracle.check(case))
    assert result.case.deployment == Deployment()
    assert str(result.case.deployment) == "cooperative"


def test_emitted_repro_reproduces_the_failure_on_its_deployment(
        monkeypatch):
    monkeypatch.setitem(ORACLE_FACTORIES, _DeploymentOracle.name,
                        lambda: _DeploymentOracle(lambda config: (
                            config.backend == "multiprocess"
                            and config.batch_size == 64)))
    oracle = make_oracle(_DeploymentOracle.name)
    case = oracle.deploy(oracle.generate(None, ROOT, 5),
                         Deployment.parse(FULL_DEPLOYMENT))
    result = shrink(oracle, case, oracle.check(case))
    repro = format_repro(result.case, result.detail)
    assert "multiprocess,batch=64" in repro
    namespace = {}
    exec(compile(repro, "<repro>", "exec"), namespace)
    test_fn = namespace["test_shrunk_deployment_probe_seed%d_case5" % ROOT]
    with pytest.raises(AssertionError, match="fails on multiprocess,batch=64"):
        test_fn()


def test_deployment_specs_round_trip():
    for spec in ("cooperative", "multiprocess", FULL_DEPLOYMENT,
                 "cooperative,batch=16,crash=0.25"):
        assert str(Deployment.parse(spec)) == spec
    # one process exchanges nothing: the cooperative backend drops both
    assert str(Deployment.parse("cooperative,workers=2,exchange=pipe")) \
        == "cooperative"
    with pytest.raises(ValueError):
        Deployment.parse("multiprocess,cores=2")


def test_fuzz_summary_counts_every_deployment():
    """Each engine case is counted once per axis; a pinned deployment
    replaces the draw for every case."""
    oracle = make_oracle("windows")
    report = run_fuzz(ROOT, [oracle], budget_cases=4)
    counts = report.coverage["windows"]
    assert report.ok
    assert counts["cooperative"] + counts["multiprocess"] == 4
    assert counts["batch1"] + counts["batch16"] + counts["batch64"] == 4
    assert counts["crash_fired"] <= counts["crash_drawn"]
    pinned = run_fuzz(ROOT, [oracle], budget_cases=2,
                      deployment=Deployment(batch_size=16))
    assert pinned.coverage["windows"]["batch16"] == 2


def test_format_repro_is_valid_python():
    oracle = _ThresholdOracle()
    case = Case("cutty", 7, 3, {"aggregate": "sum"}, [(1, 2)])
    snippet = format_repro(case, "some failure\nmore detail")
    compile(snippet, "<repro>", "exec")
    assert "seed=7 oracle=cutty case=3" in snippet
    assert "test_shrunk_cutty_seed7_case3" in snippet


def test_seed_derivation_is_stable_across_runs():
    # Bit-reproducibility contract: documented constants, not hash().
    assert derive_seed(0, "a") == derive_seed(0, "a")
    assert derive_seed(0, "a") != derive_seed(0, "b")
    assert derive_seed(0, "a", 1) != derive_seed(0, "a", "1")
    assert rng_for(0, "x").random() == rng_for(0, "x").random()
