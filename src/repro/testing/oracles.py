"""Differential oracles: evaluate one generated spec several independent
ways and diff the results.

Each oracle owns one equivalence claim of the system (its class
docstring states it; ``docs/testing.md`` has the taxonomy): ``cutty``,
``batch-stream``, ``windows``, ``session-merge``, ``replay``,
``arrangements`` and ``backfill``.

An oracle turns an RNG into a :class:`Case` (JSON-able params + a plain
list-of-tuples stream) and turns a case into either ``None`` (pass) or a
human-readable mismatch description.  Cases are data so the shrinker can
mutate the stream and re-check.  Every oracle but ``cutty`` runs engine
jobs, and runs them on the case's
:class:`~repro.testing.deployment.Deployment`: it states its program
and its reference, never a backend, a batch size or a crash.

Exactness note: engine oracles set the watermark out-of-orderness bound
to ``profile.ooo_bound + 2``.  With the bound at least 2 above the real
jitter, no element can arrive late *and* no session window can fire
before a mergeable element arrives (watermarks are monotone and trail
the per-subtask maximum by the bound), so stream results equal the batch
recompute exactly -- no tolerance windows in the comparison.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api.environment import Environment
from repro.connectors.partitioned import partition_round_robin
from repro.cutty.baselines import applicable_strategies, build_strategy
from repro.runtime.engine import EngineConfig
from repro.runtime.faults import CRASH, FaultEvent, FaultInjector
from repro.testing import reference
from repro.testing.deployment import Deployment, paced
from repro.testing.generators import (
    FILTER_FNS,
    GROUP_AGG_NAMES,
    MAP_FNS,
    StreamProfile,
    generate_elements,
    generate_gap_pattern_elements,
    generate_in_order_stream,
    make_aggregate,
    make_assigner,
    make_spec,
    random_aggregate_name,
    random_assigner_params,
    random_pipeline_params,
    random_query_set,
)
from repro.time.watermarks import WatermarkStrategy


class Case:
    """One generated differential-test input, fully described by data."""

    def __init__(self, oracle_name: str, root_seed: int, index: int,
                 params: Dict[str, Any], stream: List[tuple],
                 deployment: Optional[Deployment] = None) -> None:
        self.oracle_name = oracle_name
        self.root_seed = root_seed
        self.index = index
        self.params = params
        self.stream = stream
        #: Where the case's engine jobs run; ``None`` for an oracle that
        #: runs no engine.
        self.deployment = deployment

    @property
    def seed_line(self) -> str:
        line = ("seed=%d oracle=%s case=%d"
                % (self.root_seed, self.oracle_name, self.index))
        if self.deployment is None:
            return line
        return "%s deployment=%s" % (line, self.deployment)

    def with_stream(self, stream: List[tuple]) -> "Case":
        return Case(self.oracle_name, self.root_seed, self.index,
                    self.params, stream, self.deployment)

    def __repr__(self) -> str:
        return "Case(%s, |stream|=%d)" % (self.seed_line, len(self.stream))


class Oracle:
    """Generate cases; judge cases."""

    name = "oracle"
    #: Whether cases run engine jobs, and so take a deployment.
    runs_engine = True

    def generate(self, rng: random.Random, root_seed: int,
                 index: int) -> Case:
        raise NotImplementedError

    def check(self, case: Case) -> Optional[str]:
        """``None`` when every evaluation path agrees, else a mismatch
        description."""
        raise NotImplementedError

    def fit(self, params: Dict[str, Any],
            deployment: Deployment) -> Deployment:
        """The deployment a case with ``params`` runs on, when
        ``deployment`` is drawn or pinned for it."""
        return deployment

    def case_from(self, params: Dict[str, Any], stream: List[tuple],
                  root_seed: int = -1, index: int = -1,
                  deployment: Optional[Deployment] = None) -> Case:
        """A case of this oracle (e.g. rebuilt from its printed repro
        data); an engine oracle's runs on ``deployment``, by default
        the cooperative scheduler."""
        if self.runs_engine:
            deployment = self.fit(params, deployment or Deployment())
        return Case(self.name, root_seed, index, params,
                    [tuple(element) for element in stream], deployment)

    def deploy(self, case: Case, deployment: Deployment) -> Case:
        """``case`` moved onto ``deployment``."""
        return self.case_from(case.params, case.stream, case.root_seed,
                              case.index, deployment)


def _diff(expected: Dict, got: Dict, label: str) -> Optional[str]:
    """First few differences between two result dicts, or ``None``."""
    if expected == got:
        return None
    def first(keys):
        return sorted(keys, key=repr)[:3]
    return "\n".join(
        ["%s disagrees with reference:" % label]
        + ["  missing %r (expected %r)" % (key, expected[key])
           for key in first(set(expected) - set(got))]
        + ["  spurious %r = %r" % (key, got[key])
           for key in first(set(got) - set(expected))]
        + ["  at %r expected %r, got %r" % (key, expected[key], got[key])
           for key in first(key for key in expected
                            if key in got and got[key] != expected[key])])


# -- Cutty cross-strategy fuzzing --------------------------------------------

def _mutate_value(value: Any) -> Any:
    """The deliberate bug injected by ``--mutate``: perturb a window
    result so the harness must notice and shrink it."""
    if isinstance(value, bool) or not isinstance(value, (int, float, dict)):
        return ("mutated", value)
    if isinstance(value, dict):
        mutated = dict(value)
        mutated["count"] = mutated.get("count", 0) + 1
        return mutated
    return value + 1


class CuttyStrategyOracle(Oracle):
    """Cutty vs naive reference vs every applicable baseline strategy."""

    name = "cutty"
    runs_engine = False

    def __init__(self, mutate: Optional[str] = None) -> None:
        #: Name of a strategy whose results are deliberately corrupted
        #: (mutation smoke for the harness itself).
        self.mutate = mutate

    def generate(self, rng: random.Random, root_seed: int,
                 index: int) -> Case:
        params = {
            "queries": random_query_set(rng),
            "aggregate": random_aggregate_name(rng),
        }
        # Delta/punctuation splits between equal-timestamp elements have
        # no timestamp-boundary representation (strategies legitimately
        # disagree on zero-width windows), so those specs get strictly
        # increasing timestamps; the rest keep equal-ts bursts.
        kinds = {spec_params["kind"]
                 for spec_params in params["queries"].values()}
        min_gap = 1 if kinds & {"delta", "punctuation"} else 0
        stream = generate_in_order_stream(rng, n=rng.randint(3, 140),
                                          min_gap=min_gap)
        return self.case_from(params, stream, root_seed, index)

    def _run_strategy(self, strategy_name: str, case: Case) -> Dict:
        aggregate_name = case.params["aggregate"]
        specs = {query_id: make_spec(spec_params)
                 for query_id, spec_params
                 in case.params["queries"].items()}
        aggregator = build_strategy(
            strategy_name, lambda: make_aggregate(aggregate_name), specs)
        mutate = self.mutate == strategy_name
        results: Dict[Tuple[Any, Any, Any], Any] = {}
        last_ts = max((ts for _, ts in case.stream), default=0)
        emissions = []
        for value, ts in case.stream:
            emissions.extend(aggregator.insert(value, ts))
        emissions.extend(aggregator.flush(last_ts))
        for result in emissions:
            value = _mutate_value(result.value) if mutate else result.value
            results[(result.query_id, result.start, result.end)] = value
        return results

    def check(self, case: Case) -> Optional[str]:
        queries = case.params["queries"]
        aggregate_name = case.params["aggregate"]
        expected: Dict[Tuple[Any, Any, Any], Any] = {}
        for query_id, spec_params in queries.items():
            for window, value in reference.spec_windows(
                    spec_params, case.stream, aggregate_name).items():
                expected[(query_id,) + window] = value
        kinds = [spec_params["kind"] for spec_params in queries.values()]
        for strategy_name in applicable_strategies(kinds):
            got = self._run_strategy(strategy_name, case)
            mismatch = _diff(expected, got, "strategy=%s" % strategy_name)
            if mismatch is not None:
                return ("%s\n  queries=%r aggregate=%s"
                        % (mismatch, queries, aggregate_name))
        return None


# -- batch/stream equivalence ------------------------------------------------

#: The streaming-side rolling aggregation per GROUP_AGG name:
#: (initial accumulator, fold function).
_STREAM_FOLDS: Dict[str, Tuple[Any, Callable[[Any, Any], Any]]] = {
    "sum": (0, lambda acc, kv: acc + kv[1]),
    "count": (0, lambda acc, _kv: acc + 1),
    "min": (None, lambda acc, kv: kv[1] if acc is None else min(acc, kv[1])),
    "max": (None, lambda acc, kv: kv[1] if acc is None else max(acc, kv[1])),
}


class BatchStreamOracle(Oracle):
    """Grouped aggregation: naive == DataSet (batch) == DataStream."""

    name = "batch-stream"

    def generate(self, rng: random.Random, root_seed: int,
                 index: int) -> Case:
        params = {"pipeline": random_pipeline_params(rng)}
        profile = StreamProfile.random(rng, max_elements=120)
        stream = [(key, value)
                  for key, value, _ in generate_elements(rng, profile)]
        return self.case_from(params, stream, root_seed, index)

    def check(self, case: Case) -> Optional[str]:
        pipeline = case.params["pipeline"]
        map_fn = MAP_FNS[pipeline["map"]]
        filter_fn = FILTER_FNS[pipeline["filter"]]
        aggregate_name = pipeline["agg"]
        parallelism = pipeline["parallelism"]
        data = list(case.stream)

        expected = reference.grouped_pipeline(data, map_fn, filter_fn,
                                              aggregate_name)

        deployment = case.deployment
        batch_env = Environment(parallelism=parallelism,
                                config=deployment.config(crash=False))
        batch_result = (
            batch_env.from_bounded(data)
            .map(lambda kv: (kv[0], map_fn(kv[1])))
            .filter(lambda kv: filter_fn(kv[1]))
            .group_by(lambda kv: kv[0])
            .reduce_group(lambda key, kvs: (key, reference.apply_aggregate(
                aggregate_name, [value for _, value in kvs])))
            .collect())
        batch_env.execute()

        stream_env = Environment(parallelism=parallelism,
                                 config=deployment.config(
                                     len(data) // parallelism))
        keyed = (paced(stream_env.from_collection(data))
                 .map(lambda kv: (kv[0], map_fn(kv[1])))
                 .filter(lambda kv: filter_fn(kv[1]))
                 .key_by(lambda kv: kv[0]))
        stream_result = keyed.fold(*_STREAM_FOLDS[aggregate_name]).collect()
        stream_env.execute()
        # dict(): per key, the last emit wins
        for label, got in (("batch path", dict(batch_result.get())),
                           ("streaming path", dict(stream_result.get()))):
            mismatch = _diff(expected, got, label)
            if mismatch is not None:
                return "%s\n  pipeline=%r" % (mismatch, pipeline)
        return None


# -- keyed event-time windows, three ways ------------------------------------

class _ValueProjectingAggregate:
    """Window aggregates see the raw ``(key, value, ts)`` record; this
    adapter feeds only the payload value to the wrapped aggregate."""

    def __init__(self, inner) -> None:
        self.inner = inner

    def create_accumulator(self):
        return self.inner.create_accumulator()

    def add(self, record, accumulator):
        return self.inner.add(record[1], accumulator)

    def merge(self, acc1, acc2):
        return self.inner.merge(acc1, acc2)

    def get_result(self, accumulator):
        return self.inner.get_result(accumulator)


def _windowed(stream, ooo_bound: int, assigner_params: Dict[str, Any],
              aggregate_name: str):
    """``stream`` of ``(key, value, ts)`` watermarked ``ooo_bound + 2``
    behind its timestamps, keyed, windowed and aggregated into a collect
    sink."""
    strategy = WatermarkStrategy.for_bounded_out_of_orderness(
        lambda element: element[2], ooo_bound + 2)
    return (stream.assign_timestamps_and_watermarks(strategy)
            .key_by(lambda element: element[0])
            .window(make_assigner(assigner_params))
            .aggregate(_ValueProjectingAggregate(
                make_aggregate(aggregate_name)))
            .collect())


def _source(env, elements: List[tuple], rebalance: bool, partitions: int,
            source_parallelism: Optional[int]):
    """The stream over ``elements``, read at ``source_parallelism``
    (default: the environment's) and carried up to the watermark
    operator at the same parallelism."""
    if partitions:
        # Dealt and read round-robin, every subtask sees a subsequence
        # of the stream in order -- if a replay resumes the interleaving
        # where the cut left it.  Were the turn not restored, replayed
        # records would swap places and some would arrive late.
        stream = env.from_partitioned_source(
            partition_round_robin(elements, partitions),
            parallelism=source_parallelism)
    else:
        stream = env.from_source(lambda: elements,
                                 parallelism=source_parallelism,
                                 name="collection-source")
    stream = paced(stream)
    if rebalance:
        # Were the RebalancePartitioner cursor not restored, replayed
        # records would reach other watermark subtasks than the first
        # time, and their per-subtask watermark state would disagree.
        stream = stream.rebalance()
    return stream


def _crashing_config(case: Case) -> EngineConfig:
    """The config of the case's job under test: a drawn crash strikes
    the first source subtask, which reads its share of the stream."""
    return case.deployment.config(
        len(case.stream) // case.params["parallelism"])


def _window_results_to_dict(results) -> Dict[Tuple[Any, int, int], Any]:
    return {(result.key, result.window.start, result.window.end):
            result.value for result in results}


def run_streaming_windows(elements: List[tuple],
                          assigner_params: Dict[str, Any],
                          aggregate_name: str, ooo_bound: int,
                          parallelism: int = 2,
                          config: Optional[EngineConfig] = None,
                          rebalance: bool = False, partitions: int = 0,
                          source_parallelism: Optional[int] = None,
                          from_savepoint: Any = None,
                          ) -> Tuple[Dict[Tuple[Any, int, int], Any], Any]:
    """One streaming window job; returns (results dict, JobResult)."""
    env = Environment(parallelism=parallelism,
                      config=config or EngineConfig())
    collected = _windowed(_source(env, elements, rebalance, partitions,
                                  source_parallelism),
                          ooo_bound, assigner_params, aggregate_name)
    job = env.execute(from_savepoint=from_savepoint)
    return _window_results_to_dict(collected.get()), job


class WindowedEquivalenceOracle(Oracle):
    """Naive == batch flat-map/group-reduce == streaming WindowOperator."""

    name = "windows"

    def generate(self, rng: random.Random, root_seed: int,
                 index: int) -> Case:
        profile = StreamProfile.random(rng, max_elements=110)
        params = {
            "assigner": random_assigner_params(rng),
            "aggregate": rng.choice(GROUP_AGG_NAMES),
            "ooo_bound": profile.ooo_bound,
            "parallelism": rng.choice([1, 2]),
        }
        return self.case_from(params, generate_elements(rng, profile),
                              root_seed, index)

    def _batch_windows(self, case: Case) -> Dict[Tuple[Any, int, int], Any]:
        assigner_params = case.params["assigner"]
        aggregate_name = case.params["aggregate"]
        env = Environment(parallelism=case.params["parallelism"],
                          config=case.deployment.config(crash=False))
        dataset = env.from_bounded(list(case.stream))
        if assigner_params["kind"] == "session":
            gap = assigner_params["gap"]
            collected = (
                dataset.group_by(lambda element: element[0])
                .reduce_group(lambda key, members: (key, members))
                .flat_map(lambda key_members: [
                    ((key_members[0], start, end), value)
                    for (start, end), value in reference.spec_windows(
                        {"kind": "session", "gap": gap},
                        sorted(((value, ts)
                                for _, value, ts in key_members[1]),
                               key=lambda pair: pair[1]),
                        aggregate_name).items()])
                .collect())
        else:
            assigner = make_assigner(assigner_params)
            collected = (
                dataset.flat_map(lambda element: [
                    ((element[0], window.start, window.end), element[1])
                    for window in assigner.assign(element[1], element[2])])
                .group_by(lambda pair: pair[0])
                .reduce_group(lambda coords, pairs: (
                    coords, reference.apply_aggregate(
                        aggregate_name, [v for _, v in pairs])))
                .collect())
        env.execute()
        return dict(collected.get())

    def _paths(self, case: Case):
        """(label, evaluation) of every path diffed against the
        reference."""
        return [("batch path", lambda: self._batch_windows(case)),
                ("streaming path", lambda: _streaming_windows(case))]

    def check(self, case: Case) -> Optional[str]:
        params = case.params
        expected = reference.keyed_windows(params["assigner"], case.stream,
                                           params["aggregate"])
        for label, evaluate in self._paths(case):
            mismatch = _diff(expected, evaluate(), label)
            if mismatch is not None:
                return ("%s\n  assigner=%r ooo_bound=%d"
                        % (mismatch, params["assigner"], params["ooo_bound"]))
        return None


def _streaming_windows(case: Case) -> Dict[Tuple[Any, int, int], Any]:
    params = case.params
    return run_streaming_windows(
        list(case.stream), params["assigner"], params["aggregate"],
        params["ooo_bound"], params["parallelism"], _crashing_config(case))[0]


# -- session-window merge semantics ------------------------------------------

class SessionMergeOracle(WindowedEquivalenceOracle):
    """Streaming session windows vs the sort-and-merge reference, over
    gap patterns concentrated on the merge boundary."""

    name = "session-merge"

    def generate(self, rng: random.Random, root_seed: int,
                 index: int) -> Case:
        gap = rng.randint(2, 40)
        ooo_bound = rng.choice([0, 0, 2, gap // 2, gap])
        params = {
            "assigner": {"kind": "session", "gap": gap},
            "aggregate": rng.choice(GROUP_AGG_NAMES),
            "ooo_bound": ooo_bound,
            "parallelism": rng.choice([1, 2]),
        }
        stream = generate_gap_pattern_elements(
            rng, gap, n=rng.randint(3, 120),
            num_keys=rng.randint(1, 4), ooo_bound=ooo_bound)
        return self.case_from(params, stream, root_seed, index)

    def _paths(self, case: Case):
        return [("session merge", lambda: _streaming_windows(case))]


# -- determinism / replay ----------------------------------------------------

def crash_once(min_checkpoints: int, at_round: int) -> FaultInjector:
    """One crash, on the cooperative scheduler's round ``at_round`` or
    later, once ``min_checkpoints`` checkpoints are sealed."""
    return FaultInjector([FaultEvent(
        CRASH, after_checkpoints=min_checkpoints,
        when=lambda view: view.rounds >= at_round)])


class ReplayOracle(Oracle):
    """Crash-restore mid-stream == uninterrupted run, and so is stop ->
    savepoint -> resume in a fresh environment with the window vertex at
    the case's other parallelism: the union of the stopped run's and the
    resumed run's window results (each its own ``collect()``).

    Both the crash and the resume run on the case's deployment, which
    always carries a crash (``params["crash_fraction"]`` when none was
    drawn).  The stop runs on the cooperative scheduler, the only one
    that stops between rounds.
    """

    name = "replay"

    def fit(self, params: Dict[str, Any],
            deployment: Deployment) -> Deployment:
        if deployment.crash is None:
            deployment = deployment.replace(crash=params["crash_fraction"])
        if params.get("rebalance"):
            # A round-robin exchange ahead of the watermark operator
            # makes lateness depend on how the source subtasks
            # interleave, which only the cooperative scheduler repeats
            # (ROADMAP item 11).
            deployment = deployment.replace(backend="cooperative")
        return deployment

    def generate(self, rng: random.Random, root_seed: int,
                 index: int) -> Case:
        profile = StreamProfile.random(rng, max_elements=90)
        params = {
            "assigner": random_assigner_params(rng,
                                               ("tumbling", "sliding",
                                                "session")),
            "aggregate": rng.choice(GROUP_AGG_NAMES),
            "ooo_bound": profile.ooo_bound,
            "parallelism": rng.choice([1, 2]),
            "crash_fraction": rng.choice([0.25, 0.5, 0.75]),
            # Half the cases route through a round-robin exchange so the
            # RebalancePartitioner cursor is part of the replayed cut.
            "rebalance": rng.choice([False, True]),
            # Or the stream is read back from three partitions, so the
            # source's interleaving is part of the replayed cut.
            "partitions": rng.choice([0, 3]),
        }
        if params["rebalance"]:
            # Not both: subtasks that own two partitions and one drift
            # apart, and the exchange would mix them past any bound.
            params["partitions"] = 0
        return self.case_from(params, generate_elements(rng, profile),
                              root_seed, index)

    def check(self, case: Case) -> Optional[str]:
        params = case.params
        deployment = case.deployment
        parallelism = params["parallelism"]

        def run(config, **options):
            options.setdefault("parallelism", parallelism)
            return run_streaming_windows(
                list(case.stream), params["assigner"], params["aggregate"],
                params["ooo_bound"], config=config,
                rebalance=params.get("rebalance", False),
                partitions=params.get("partitions", 0), **options)[0]

        clean = run(deployment.config(crash=False))
        mismatch = _diff(clean, run(_crashing_config(case)),
                         "replay after a crash (fired=%s)"
                         % deployment.crash_fired)
        if mismatch is not None:
            return mismatch

        # Stopped where the crash struck: a sealed checkpoint, and the
        # first source subtask through the drawn share of its records.
        after_records = int(len(case.stream) // parallelism
                            * deployment.crash)
        stopped: List[Any] = []

        def stop(engine, _rounds) -> bool:
            source = next(task for task in engine.tasks if task.is_source)
            if (not stopped and len(engine.checkpoint_store) >= 1
                    and source.metrics.counters().get("records_out", 0)
                    >= max(1, after_records)):
                stopped.append(engine)
                return True
            return False

        before = run(deployment.replace(backend="cooperative").config(
            crash=False, cancel_hook=stop))
        if not stopped:
            return None  # the job ended first: nothing to resume
        after = run(deployment.config(crash=False),
                    parallelism=3 - parallelism,
                    source_parallelism=parallelism,
                    from_savepoint=stopped[0].create_savepoint())
        # The union of both results: merged either way round, so that a
        # window the two report differently diverges whichever wins.
        return (_diff(clean, {**before, **after}, "savepoint resume")
                or _diff(clean, {**after, **before}, "savepoint resume"))


# -- shared arrangements vs independent planning -----------------------------

#: Named, deterministic left-side filters for arrangement-oracle joins:
#: name -> (predicate, columns read).  Filtering the *left* stream never
#: affects the arrangement built over the right table, so filtered and
#: unfiltered joins still share one index.
ARRANGEMENT_FILTERS: Dict[str, Tuple[Callable[[Dict[str, Any]], bool],
                                     Tuple[str, ...]]] = {
    "none": (lambda row: True, ()),
    "amount-pos": (lambda row: row["amount"] > 0, ("amount",)),
    "amount-even": (lambda row: row["amount"] % 2 == 0, ("amount",)),
    "user-low": (lambda row: row["user"] < "u3", ("user",)),
}

#: Named grouping key sets over the generated (user, amount, ts) rows.
ARRANGEMENT_KEY_SETS: Dict[str, Tuple[str, ...]] = {
    "user": ("user",), "user-amount": ("user", "amount")}


class SharedArrangementOracle(Oracle):
    """N queries on shared arrangements == N independently planned runs
    (per-query equality of the sorted rows, a crash or not), with
    sharing actually occurring.  The
    shared run is the one the deployment's crash strikes."""

    name = "arrangements"

    def generate(self, rng: random.Random, root_seed: int,
                 index: int) -> Case:
        num_keys = rng.randint(1, 6)
        ooo = rng.choice([0, 0, 3, 9])
        queries = []
        for _ in range(rng.choice([4, 4, 8, 16, 16, 64])):
            if rng.random() < 0.3:
                queries.append({"kind": "join",
                                "filter": rng.choice(
                                    sorted(ARRANGEMENT_FILTERS))})
            else:
                queries.append({"kind": "group",
                                "key": rng.choice(
                                    sorted(ARRANGEMENT_KEY_SETS)),
                                "agg": rng.choice(GROUP_AGG_NAMES)})
        params = {
            "queries": queries,
            "right_rows": [[u, "tier%d" % rng.randint(0, 2)]
                           for u in range(num_keys)],
            "ooo_bound": ooo,
            "parallelism": rng.choice([1, 2]),
            "compaction_interval": rng.choice([1, 2, 8]),
        }
        rng.random()  # a spare draw, so that every stream stays as seeded
        stream = []
        for i in range(rng.randint(10, 120)):
            stream.append((rng.randrange(num_keys),
                           rng.randint(-20, 20),
                           i * 5 + rng.randint(0, ooo)))
        return self.case_from(params, stream, root_seed, index)

    def _run(self, case: Case, share: bool) -> Tuple[List[List[dict]], Any]:
        params = case.params
        config = case.deployment.config(
            len(case.stream) // params["parallelism"], crash=share,
            share_arrangements=share,
            arrangement_compaction_interval=params["compaction_interval"])
        env = Environment(parallelism=params["parallelism"], config=config)
        rows = [{"user": "u%d" % user, "amount": amount, "ts": ts}
                for user, amount, ts in case.stream]
        table = env.table(rows, time_column="ts",
                          watermark_delay=params["ooo_bound"] + 2)
        right = env.table([{"user": "u%d" % user, "tier": tier}
                           for user, tier in params["right_rows"]])
        # The right side is short: paced harder, so that it does not end
        # checkpointing before the first cut.
        table, right = paced(table), paced(right, 0.02)
        collected = []
        for spec in params["queries"]:
            if spec["kind"] == "join":
                predicate, reads = ARRANGEMENT_FILTERS[spec["filter"]]
                left = table if spec["filter"] == "none" else \
                    table.where(predicate, reads=reads)
                collected.append(left.join(right, on=("user",)).collect())
            else:
                key = ARRANGEMENT_KEY_SETS[spec["key"]]
                column = None if spec["agg"] == "count" else "amount"
                collected.append(table.group_by(*key).agg(
                    out=(spec["agg"], column)).collect())
        env.execute()
        return [sorted(result.get(), key=repr)
                for result in collected], env

    def check(self, case: Case) -> Optional[str]:
        if not case.stream or not case.params["queries"]:
            return None
        params = case.params
        shared, env = self._run(case, share=True)
        independent, _ = self._run(case, share=False)
        for index, (got, expected) in enumerate(zip(shared, independent)):
            if got != expected:
                return ("shared arrangements diverge from independent "
                        "planning at query %d (%r):\n  expected %r\n"
                        "  got      %r"
                        % (index, params["queries"][index], expected[:4],
                           got[:4]))
        group_keys = {spec["key"] for spec in params["queries"]
                      if spec["kind"] == "group"}
        joins = any(spec["kind"] == "join" for spec in params["queries"])
        bound = len(group_keys) + (1 if joins else 0)
        built = len(env.arrangement_catalog())
        if built > bound:
            return ("sharing failed: %d arrangements built for %d query "
                    "shapes (%r)" % (built, bound, params["queries"]))
        report = env.job_report().get("arrangements") or []
        if not report:
            return "sharing enabled but job report has no arrangements"
        for row in report:
            if row["compacted_through"] > row["sealed"]:
                return ("arrangement %r compacted beyond its sealed "
                        "frontier: %r" % (row["arrangement"], row))
        return None


# -- hybrid history+stream backfill ------------------------------------------

def run_hybrid_windows(history: List[tuple], live: List[tuple],
                       cutover: Optional[int],
                       assigner_params: Dict[str, Any],
                       aggregate_name: str, ooo_bound: int,
                       parallelism: int = 2,
                       config: Optional[EngineConfig] = None,
                       history_burst: int = 4,
                       ) -> Tuple[Dict[Tuple[Any, int, int], Any], Any]:
    """One unified history->stream window job via ``then_stream``;
    returns (results dict, Environment) -- the environment so callers
    can read the cutover section of the job report."""
    env = Environment(parallelism=parallelism,
                      config=config or EngineConfig())
    collected = _windowed(
        paced(env.read(history).then_stream(
            lambda: live, cutover=cutover,
            timestamp_fn=lambda element: element[2],
            history_burst=history_burst)),
        ooo_bound, assigner_params, aggregate_name)
    env.execute()
    return _window_results_to_dict(collected.get()), env


def split_for_backfill(elements: List[tuple], mode: str,
                       cutover_fraction: float, overlap: int,
                       ) -> Tuple[List[tuple], List[tuple], Optional[int]]:
    """Split one generated stream into (history, live, cutover).

    ``concat`` mode cuts at an arrival-order index and uses no cutover
    watermark.  ``watermark`` mode partitions by event time at the
    fraction-quantile timestamp ``T`` and then *misplaces* ``overlap``
    records onto each wrong side -- those must be filtered (and counted)
    by the cutover discipline, proving the seam neither loses nor
    double-counts records.
    """
    if mode == "concat":
        split = int(len(elements) * cutover_fraction)
        return list(elements[:split]), list(elements[split:]), None
    if not elements:
        return [], [], 0
    stamps = sorted(element[2] for element in elements)
    position = min(len(stamps) - 1,
                   int(len(stamps) * cutover_fraction))
    cutover = stamps[position]
    history_core = [e for e in elements if e[2] <= cutover]
    live_core = [e for e in elements if e[2] > cutover]
    k = min(overlap, len(history_core), len(live_core))
    history = history_core + live_core[:k]      # k records to be skipped
    live = history_core[len(history_core) - k:] + live_core
    return history, live, cutover


class BackfillOracle(Oracle):
    """The unified history->stream path == brute-force recompute over
    the concatenated record set, at randomized cutover offsets.

    Two seam disciplines are exercised: pure concatenation (``concat``)
    and a watermark-precise cutover (``watermark``) where records
    deliberately misplaced across the seam must be dropped exactly once
    each.  Besides the window-result diff, the engine's cutover report
    is audited for zero gap / zero double-count: emitted + skipped must
    account for every input record.
    """

    name = "backfill"

    def generate(self, rng: random.Random, root_seed: int,
                 index: int) -> Case:
        profile = StreamProfile.random(rng, max_elements=100)
        params = {
            "assigner": random_assigner_params(rng),
            "aggregate": rng.choice(GROUP_AGG_NAMES),
            "ooo_bound": profile.ooo_bound,
            "parallelism": rng.choice([1, 2]),
            "cutover_fraction": rng.choice([0.0, 0.1, 0.25, 0.5,
                                            0.75, 0.9, 1.0]),
            "mode": rng.choice(["concat", "watermark"]),
            "overlap": rng.randint(0, 3),
            "history_burst": rng.choice([1, 2, 8]),
        }
        if params["assigner"]["kind"] == "session":
            stream = generate_gap_pattern_elements(
                rng, params["assigner"]["gap"], n=profile.num_elements,
                num_keys=profile.num_keys, ooo_bound=profile.ooo_bound)
        else:
            stream = generate_elements(rng, profile)
        return self.case_from(params, stream, root_seed, index)

    def check(self, case: Case) -> Optional[str]:
        params = case.params
        elements = list(case.stream)
        history, live, cutover = split_for_backfill(
            elements, params["mode"], params["cutover_fraction"],
            params["overlap"])
        expected = reference.keyed_windows(params["assigner"], elements,
                                           params["aggregate"])
        got, env = run_hybrid_windows(
            history, live, cutover, params["assigner"],
            params["aggregate"], params["ooo_bound"],
            params["parallelism"], _crashing_config(case),
            history_burst=params.get("history_burst", 4))
        mismatch = (_diff(expected, got, "unified backfill")
                    or self._audit_seam(env, elements, history, live,
                                        cutover))
        if mismatch is None:
            return None
        return ("%s\n  mode=%s cutover=%r |history|=%d |live|=%d"
                % (mismatch, params["mode"], cutover, len(history),
                   len(live)))

    @staticmethod
    def _audit_seam(env, elements: List[tuple], history: List[tuple],
                    live: List[tuple],
                    cutover: Optional[int]) -> Optional[str]:
        """Zero gap / zero double-count: the cutover report must account
        for every record on both sides of the seam."""
        rows = env.job_report().get("cutover") or []
        if not rows:
            return "job report has no cutover section"
        total = {column: sum(row[column] for row in rows)
                 for column in ("history_emitted", "history_skipped",
                                "stream_emitted", "stream_skipped")}
        emitted = total["history_emitted"] + total["stream_emitted"]
        history_seen = total["history_emitted"] + total["history_skipped"]
        stream_seen = total["stream_emitted"] + total["stream_skipped"]
        if emitted != len(elements):
            return ("seam gap/double-count: %d records emitted across the "
                    "cutover, input had %d" % (emitted, len(elements)))
        if history_seen != len(history) or stream_seen != len(live):
            return ("cutover report does not cover both sides: history "
                    "%d/%d, stream %d/%d" % (history_seen, len(history),
                                             stream_seen, len(live)))
        if cutover is not None:
            for row in rows:
                if row["cutover"] != cutover:
                    return ("cutover watermark not reported: %r != %r"
                            % (row["cutover"], cutover))
        return None


# -- registry ----------------------------------------------------------------

ORACLE_FACTORIES: Dict[str, Callable[..., Oracle]] = {
    CuttyStrategyOracle.name: CuttyStrategyOracle,
    BatchStreamOracle.name: BatchStreamOracle,
    WindowedEquivalenceOracle.name: WindowedEquivalenceOracle,
    SessionMergeOracle.name: SessionMergeOracle,
    ReplayOracle.name: ReplayOracle,
    SharedArrangementOracle.name: SharedArrangementOracle,
    BackfillOracle.name: BackfillOracle,
}

DEFAULT_ORACLE_NAMES = tuple(ORACLE_FACTORIES)


def make_oracle(name: str, **kwargs: Any) -> Oracle:
    try:
        factory = ORACLE_FACTORIES[name]
    except KeyError:
        raise ValueError("unknown oracle %r (have: %s)"
                         % (name, ", ".join(sorted(ORACLE_FACTORIES))))
    return factory(**kwargs)
