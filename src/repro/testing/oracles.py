"""Differential oracles: evaluate one generated spec several independent
ways and diff the results.

Each oracle owns one equivalence claim of the system:

* ``cutty``        -- Cutty's sliced sharing == naive recompute == every
                      baseline strategy able to run the spec (eager,
                      lazy, pairs, panes, B-Int, unshared);
* ``batch-stream`` -- the STREAMLINE uniform-model claim on grouped
                      aggregation: naive recompute == the batch path
                      (``runtime/batch.py`` operators) == the streaming
                      path (keyed rolling fold), on one engine;
* ``windows``      -- keyed event-time windowing three ways: naive
                      recompute == batch (window assignment as a batch
                      flat-map + group-reduce) == the streaming
                      ``WindowOperator`` fed out-of-order data under
                      bounded-out-of-orderness watermarks;
* ``session-merge``-- session-window merge semantics of
                      ``windowing/assigners.py`` against a sort-and-merge
                      reference, over gap patterns sitting on the merge
                      boundary;
* ``replay``       -- determinism under failure: a job crash-restored
                      mid-stream from its latest checkpoint produces the
                      same output set as the uninterrupted run;
* ``arrangements`` -- shared arrangements: N table queries planned onto
                      a handful of shared multiversioned indexes
                      (``share_arrangements=True``) produce exactly the
                      rows of N independently planned runs, including
                      under a crash restored mid-run from a durable
                      checkpoint while compaction is active;
* ``backfill``     -- the unified history->stream path
                      (``DataSet.then_stream``): executing a bounded
                      history prefix and resuming against the live
                      remainder -- at randomized cutover offsets, with
                      and without a watermark-precise cutover -- equals
                      the brute-force recompute over the concatenated
                      record set, with the engine's cutover report
                      accounting for every record (zero seam gaps, zero
                      double-counts).

An oracle turns an RNG into a :class:`Case` (JSON-able params + a plain
list-of-tuples stream) and turns a case into either ``None`` (pass) or a
human-readable mismatch description.  Cases are data so the shrinker can
mutate the stream and re-check.

Exactness note: engine oracles set the watermark out-of-orderness bound
to ``profile.ooo_bound + 2``.  With the bound at least 2 above the real
jitter, no element can arrive late *and* no session window can fire
before a mergeable element arrives (watermarks are monotone and trail
the per-subtask maximum by the bound), so stream results equal the batch
recompute exactly -- no tolerance windows in the comparison.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api.environment import Environment
from repro.connectors.partitioned import partition_round_robin
from repro.cutty.baselines import applicable_strategies, build_strategy
from repro.runtime.engine import EngineConfig
from repro.runtime.faults import CRASH, FaultEvent, FaultInjector
from repro.runtime.restart import FixedDelayRestart
from repro.testing import reference
from repro.testing.generators import (
    FILTER_FNS,
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
                 params: Dict[str, Any],
                 stream: List[tuple]) -> None:
        self.oracle_name = oracle_name
        self.root_seed = root_seed
        self.index = index
        self.params = params
        self.stream = stream

    @property
    def seed_line(self) -> str:
        return ("seed=%d oracle=%s case=%d"
                % (self.root_seed, self.oracle_name, self.index))

    def with_stream(self, stream: List[tuple]) -> "Case":
        return Case(self.oracle_name, self.root_seed, self.index,
                    self.params, stream)

    def __repr__(self) -> str:
        return "Case(%s, params=%r, |stream|=%d)" % (self.seed_line,
                                                     self.params,
                                                     len(self.stream))


class Oracle:
    """Generate cases; judge cases."""

    name = "oracle"

    def generate(self, rng: random.Random, root_seed: int,
                 index: int) -> Case:
        raise NotImplementedError

    def check(self, case: Case) -> Optional[str]:
        """``None`` when every evaluation path agrees, else a mismatch
        description."""
        raise NotImplementedError

    def case_from(self, params: Dict[str, Any], stream: List[tuple],
                  root_seed: int = -1, index: int = -1) -> Case:
        """Rebuild a case from its printed repro data."""
        return Case(self.name, root_seed, index, params,
                    [tuple(element) for element in stream])


def _diff(expected: Dict, got: Dict, label: str) -> Optional[str]:
    """First few differences between two result dicts, or ``None``."""
    if expected == got:
        return None
    lines = ["%s disagrees with reference:" % label]
    missing = sorted((k for k in expected if k not in got), key=repr)[:3]
    spurious = sorted((k for k in got if k not in expected), key=repr)[:3]
    changed = sorted((k for k in expected
                      if k in got and got[k] != expected[k]), key=repr)[:3]
    for key in missing:
        lines.append("  missing %r (expected %r)" % (key, expected[key]))
    for key in spurious:
        lines.append("  spurious %r = %r" % (key, got[key]))
    for key in changed:
        lines.append("  at %r expected %r, got %r"
                     % (key, expected[key], got[key]))
    return "\n".join(lines)


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
        return Case(self.name, root_seed, index, params, stream)

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

def _stream_fold(keyed, aggregate_name: str):
    """The streaming-side rolling aggregation for one GROUP_AGG name."""
    if aggregate_name == "sum":
        return keyed.fold(0, lambda acc, kv: acc + kv[1])
    if aggregate_name == "count":
        return keyed.fold(0, lambda acc, _kv: acc + 1)
    if aggregate_name == "min":
        return keyed.fold(None, lambda acc, kv:
                          kv[1] if acc is None else min(acc, kv[1]))
    if aggregate_name == "max":
        return keyed.fold(None, lambda acc, kv:
                          kv[1] if acc is None else max(acc, kv[1]))
    raise ValueError("unsupported stream aggregate %r" % aggregate_name)


class BatchStreamOracle(Oracle):
    """Grouped aggregation: naive == DataSet (batch) == DataStream."""

    name = "batch-stream"

    def generate(self, rng: random.Random, root_seed: int,
                 index: int) -> Case:
        params = {"pipeline": random_pipeline_params(rng)}
        profile = StreamProfile.random(rng, max_elements=120)
        stream = [(key, value)
                  for key, value, _ in generate_elements(rng, profile)]
        return Case(self.name, root_seed, index, params, stream)

    def check(self, case: Case) -> Optional[str]:
        pipeline = case.params["pipeline"]
        map_fn = MAP_FNS[pipeline["map"]]
        filter_fn = FILTER_FNS[pipeline["filter"]]
        aggregate_name = pipeline["agg"]
        parallelism = pipeline["parallelism"]
        data = list(case.stream)

        expected = reference.grouped_pipeline(data, map_fn, filter_fn,
                                              aggregate_name)

        batch_env = Environment(parallelism=parallelism)
        batch_result = (
            batch_env.from_bounded(data)
            .map(lambda kv: (kv[0], map_fn(kv[1])))
            .filter(lambda kv: filter_fn(kv[1]))
            .group_by(lambda kv: kv[0])
            .reduce_group(lambda key, kvs: (key, reference.apply_aggregate(
                aggregate_name, [value for _, value in kvs])))
            .collect())
        batch_env.execute()
        batch = dict(batch_result.get())
        mismatch = _diff(expected, batch, "batch path")
        if mismatch is not None:
            return "%s\n  pipeline=%r" % (mismatch, pipeline)

        stream_env = Environment(parallelism=parallelism)
        keyed = (stream_env.from_collection(data)
                 .map(lambda kv: (kv[0], map_fn(kv[1])))
                 .filter(lambda kv: filter_fn(kv[1]))
                 .key_by(lambda kv: kv[0]))
        stream_result = _stream_fold(keyed, aggregate_name).collect()
        stream_env.execute()
        streaming: Dict[Any, Any] = {}
        for key, accumulator in stream_result.get():
            streaming[key] = accumulator  # per-key order: last emit wins
        mismatch = _diff(expected, streaming, "streaming path")
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


def _watermarked(env, elements: List[tuple], bound: int,
                 rebalance: bool = False, partitions: int = 0,
                 source_parallelism: Optional[int] = None,
                 pace_s: float = 0.0):
    """The keyed, watermarked stream over ``elements``.  The source and
    the watermark operator run at ``source_parallelism`` (default: the
    environment's), whatever follows the ``key_by`` at the
    environment's.  ``pace_s`` sleeps that long per record at the
    source, so wall-clock checkpoints seal mid-stream."""
    strategy = WatermarkStrategy.for_bounded_out_of_orderness(
        lambda element: element[2], bound)
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
    if pace_s:
        stream = stream.map(lambda element: time.sleep(pace_s) or element,
                            name="pace")
    if rebalance:
        # Round-robin exchange ahead of the stateful watermark operator:
        # exercises the RebalancePartitioner cursor in the checkpoint
        # cut.  If the cursor were not restored, replayed records would
        # route to different subtasks than the original run and the
        # per-subtask watermark state would disagree with the replay.
        stream = stream.rebalance()
    return (stream
            .assign_timestamps_and_watermarks(strategy)
            .key_by(lambda element: element[0]))


def _window_results_to_dict(results) -> Dict[Tuple[Any, int, int], Any]:
    out = {}
    for result in results:
        out[(result.key, result.window.start, result.window.end)] = (
            result.value)
    return out


def run_streaming_windows(elements: List[tuple],
                          assigner_params: Dict[str, Any],
                          aggregate_name: str, ooo_bound: int,
                          parallelism: int = 2,
                          config: Optional[EngineConfig] = None,
                          rebalance: bool = False, partitions: int = 0,
                          source_parallelism: Optional[int] = None,
                          from_savepoint: Any = None, pace_s: float = 0.0,
                          ) -> Tuple[Dict[Tuple[Any, int, int], Any], Any]:
    """One streaming window job; returns (results dict, JobResult)."""
    env = Environment(parallelism=parallelism,
                                     config=config or EngineConfig())
    collected = (_watermarked(env, elements, ooo_bound + 2,
                              rebalance=rebalance, partitions=partitions,
                              source_parallelism=source_parallelism,
                              pace_s=pace_s)
                 .window(make_assigner(assigner_params))
                 .aggregate(_ValueProjectingAggregate(
                     make_aggregate(aggregate_name)))
                 .collect())
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
            "aggregate": random_aggregate_name(rng, ("sum", "count", "min",
                                                     "max")),
            "ooo_bound": profile.ooo_bound,
            "parallelism": rng.choice([1, 2]),
        }
        return Case(self.name, root_seed, index, params,
                    generate_elements(rng, profile))

    def _batch_windows(self, case: Case) -> Dict[Tuple[Any, int, int], Any]:
        assigner_params = case.params["assigner"]
        aggregate_name = case.params["aggregate"]
        env = Environment(
            parallelism=case.params["parallelism"])
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
            env.execute()
            return {coords: value for coords, value in collected.get()}
        assigner = make_assigner(assigner_params)
        collected = (
            dataset.flat_map(lambda element: [
                ((element[0], window.start, window.end), element[1])
                for window in assigner.assign(element[1], element[2])])
            .group_by(lambda pair: pair[0])
            .reduce_group(lambda coords, pairs: (coords,
                                                 reference.apply_aggregate(
                                                     aggregate_name,
                                                     [v for _, v in pairs])))
            .collect())
        env.execute()
        return {coords: value for coords, value in collected.get()}

    def check(self, case: Case) -> Optional[str]:
        assigner_params = case.params["assigner"]
        aggregate_name = case.params["aggregate"]
        expected = reference.keyed_windows(assigner_params, case.stream,
                                           aggregate_name)
        batch = self._batch_windows(case)
        mismatch = _diff(expected, batch, "batch path")
        if mismatch is not None:
            return "%s\n  assigner=%r" % (mismatch, assigner_params)
        streaming, _ = run_streaming_windows(
            list(case.stream), assigner_params, aggregate_name,
            case.params["ooo_bound"], case.params["parallelism"])
        mismatch = _diff(expected, streaming, "streaming path")
        if mismatch is not None:
            return "%s\n  assigner=%r" % (mismatch, assigner_params)
        return None


# -- session-window merge semantics ------------------------------------------

class SessionMergeOracle(Oracle):
    """Streaming session windows vs the sort-and-merge reference, over
    gap patterns concentrated on the merge boundary."""

    name = "session-merge"

    def generate(self, rng: random.Random, root_seed: int,
                 index: int) -> Case:
        gap = rng.randint(2, 40)
        ooo_bound = rng.choice([0, 0, 2, gap // 2, gap])
        params = {
            "assigner": {"kind": "session", "gap": gap},
            "aggregate": random_aggregate_name(rng, ("sum", "count", "min",
                                                     "max")),
            "ooo_bound": ooo_bound,
            "parallelism": rng.choice([1, 2]),
        }
        stream = generate_gap_pattern_elements(
            rng, gap, n=rng.randint(3, 120),
            num_keys=rng.randint(1, 4), ooo_bound=ooo_bound)
        return Case(self.name, root_seed, index, params, stream)

    def check(self, case: Case) -> Optional[str]:
        expected = reference.keyed_windows(case.params["assigner"],
                                           case.stream,
                                           case.params["aggregate"])
        streaming, _ = run_streaming_windows(
            list(case.stream), case.params["assigner"],
            case.params["aggregate"], case.params["ooo_bound"],
            case.params["parallelism"])
        mismatch = _diff(expected, streaming, "session merge")
        if mismatch is not None:
            return ("%s\n  gap=%d ooo_bound=%d"
                    % (mismatch, case.params["assigner"]["gap"],
                       case.params["ooo_bound"]))
        return None


# -- determinism / replay ----------------------------------------------------

def crash_once(min_checkpoints: int, at_round: int) -> FaultInjector:
    """One crash, on the cooperative scheduler's round ``at_round`` or
    later, once ``min_checkpoints`` checkpoints are sealed."""
    return FaultInjector([FaultEvent(
        CRASH, after_checkpoints=min_checkpoints,
        when=lambda view: view.rounds >= at_round)])


def make_stop_once_hook(min_checkpoints: int, at_round: int):
    """A cancel hook that stops the job after at least
    ``min_checkpoints`` completed checkpoints and ``at_round`` rounds.
    ``hook.state`` keeps whether it fired and the engine it fired on."""
    state = {"fired": False, "engine": None}

    def hook(engine, rounds):
        if (not state["fired"]
                and len(engine.checkpoint_store) >= min_checkpoints
                and rounds >= at_round):
            state["fired"] = True
            state["engine"] = engine
            return True
        return False

    hook.state = state
    return hook


class ReplayOracle(Oracle):
    """Crash-restore mid-stream == uninterrupted run, and so is stop ->
    savepoint -> resume in a fresh environment with the window vertex at
    the case's other parallelism (output-set equality; the collect sink
    is at-least-once, so sets, not bags).

    ``params["backend"]`` (default cooperative) is where the stopped job
    resumes: on ``"multiprocess"`` the second leg is a cross-backend
    restore (stopping between rounds is cooperative-only).
    ``params["crash_backend"]`` is where the crash leg runs; on worker
    processes the source is paced so checkpoints seal mid-stream, and
    the crash waits for records instead of a scheduler round.
    """

    name = "replay"

    def generate(self, rng: random.Random, root_seed: int,
                 index: int) -> Case:
        profile = StreamProfile.random(rng, max_elements=90)
        params = {
            "assigner": random_assigner_params(rng,
                                               ("tumbling", "sliding",
                                                "session")),
            "aggregate": random_aggregate_name(rng, ("sum", "count", "min",
                                                     "max")),
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
        return Case(self.name, root_seed, index, params,
                    generate_elements(rng, profile))

    def check(self, case: Case) -> Optional[str]:
        params = case.params
        source = dict(rebalance=params.get("rebalance", False),
                      partitions=params.get("partitions", 0))
        clean_config = EngineConfig(checkpoint_interval_ms=5,
                                    elements_per_step=4)
        clean, clean_job = run_streaming_windows(
            list(case.stream), params["assigner"], params["aggregate"],
            params["ooo_bound"], params["parallelism"], clean_config,
            **source)

        at_round = max(5, int(clean_job.rounds * params["crash_fraction"]))
        if params.get("crash_backend", "cooperative") == "cooperative":
            faults = crash_once(min_checkpoints=1, at_round=at_round)
            crash_config = EngineConfig(checkpoint_interval_ms=5,
                                        elements_per_step=4, faults=faults)
            pace_s = 0.0
        else:
            per_subtask = len(case.stream) // params["parallelism"]
            faults = FaultInjector([FaultEvent(
                CRASH, after_checkpoints=1, after_records=max(
                    1, int(per_subtask * params["crash_fraction"])))])
            crash_config = EngineConfig(
                backend="multiprocess", num_workers=2,
                checkpoint_interval_ms=5, elements_per_step=4,
                restart_strategy=FixedDelayRestart(max_restarts=3,
                                                   delay_ms=0),
                faults=faults)
            pace_s = 0.002
        replayed, _ = run_streaming_windows(
            list(case.stream), params["assigner"], params["aggregate"],
            params["ooo_bound"], params["parallelism"], crash_config,
            pace_s=pace_s, **source)

        clean_set = set(clean.items())
        replay_set = set(replayed.items())
        if clean_set != replay_set:
            return self._diverged("replay", "crash", at_round,
                                  bool(faults.applied), clean_set,
                                  replay_set, params)

        stop = make_stop_once_hook(min_checkpoints=1, at_round=at_round)
        stop_config = EngineConfig(checkpoint_interval_ms=5,
                                   elements_per_step=4, cancel_hook=stop)
        before, _ = run_streaming_windows(
            list(case.stream), params["assigner"], params["aggregate"],
            params["ooo_bound"], params["parallelism"], stop_config,
            **source)
        if not stop.state["fired"]:
            return None  # the job ended first: nothing to resume
        resume_config = EngineConfig(
            backend=params.get("backend", "cooperative"),
            elements_per_step=4)
        after, _ = run_streaming_windows(
            list(case.stream), params["assigner"], params["aggregate"],
            params["ooo_bound"], 3 - params["parallelism"], resume_config,
            source_parallelism=params["parallelism"],
            from_savepoint=stop.state["engine"].create_savepoint(),
            **source)
        resumed_set = set(before.items()) | set(after.items())
        if clean_set != resumed_set:
            return self._diverged("savepoint resume", "stop", at_round,
                                  True, clean_set, resumed_set, params)
        return None

    @staticmethod
    def _diverged(what: str, event: str, at_round: int, fired: bool,
                  clean_set: set, got_set: set,
                  params: Dict[str, Any]) -> str:
        lost = sorted(clean_set - got_set, key=repr)[:4]
        extra = sorted(got_set - clean_set, key=repr)[:4]
        return ("%s diverged after %s at round %d (fired=%s):\n"
                "  lost: %r\n  extra: %r\n  assigner=%r ooo_bound=%d"
                % (what, event, at_round, fired, lost, extra,
                   params["assigner"], params["ooo_bound"]))


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
    "user": ("user",),
    "user-amount": ("user", "amount"),
}

ARRANGEMENT_AGGS = ("sum", "count", "min", "max")


def make_arrangement_crash() -> FaultInjector:
    """Crash once, after a checkpoint sealed and at least one
    arrangement shard has compacted -- the restore then lands mid-way
    through a compacting index."""
    def compacted(view) -> bool:
        return any(row["compactions"] >= 1 for task in view.tasks
                   for row in task.operator_reports("arrangement_report"))
    return FaultInjector([FaultEvent(CRASH, after_checkpoints=1,
                                     when=compacted)])


def _distinct(rows: List[dict]) -> List[dict]:
    return sorted({repr(row): row for row in rows}.values(), key=repr)


class SharedArrangementOracle(Oracle):
    """N queries on shared arrangements == N independently planned runs
    (per-query row-set equality), with sharing actually occurring.
    ``params["backend"]`` (default cooperative) is where the shared,
    possibly crashed, run executes."""

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
                                "agg": rng.choice(ARRANGEMENT_AGGS)})
        params = {
            "queries": queries,
            "right_rows": [[u, "tier%d" % rng.randint(0, 2)]
                           for u in range(num_keys)],
            "ooo_bound": ooo,
            "parallelism": rng.choice([1, 2]),
            "compaction_interval": rng.choice([1, 2, 8]),
            "crash": rng.random() < 0.3,
        }
        stream = []
        for i in range(rng.randint(10, 120)):
            stream.append((rng.randrange(num_keys),
                           rng.randint(-20, 20),
                           i * 5 + rng.randint(0, ooo)))
        return Case(self.name, root_seed, index, params, stream)

    def _run(self, case: Case, share: bool,
             crash: bool = False) -> Tuple[List[List[dict]], Any]:
        params = case.params
        extra: Dict[str, Any] = {}
        workers = share and params.get("backend",
                                       "cooperative") != "cooperative"
        if workers:
            extra.update(backend=params["backend"], num_workers=2,
                         restart_strategy=FixedDelayRestart(
                             max_restarts=3, delay_ms=0))
        if crash:
            # On workers the first cut must land before the small right
            # table's source finishes and ends all checkpointing: one
            # record per step, so that source cannot drain all of its
            # rows in a worker's first round, before the first trigger
            # has reached it.
            extra.update(checkpoint_interval_ms=1 if workers else 5,
                         elements_per_step=1 if workers else 4,
                         faults=make_arrangement_crash())
        config = EngineConfig(
            share_arrangements=share,
            arrangement_compaction_interval=params["compaction_interval"],
            **extra)
        env = Environment(parallelism=params["parallelism"], config=config)
        rows = [{"user": "u%d" % user, "amount": amount, "ts": ts}
                for user, amount, ts in case.stream]
        table = env.table(rows, time_column="ts",
                          watermark_delay=params["ooo_bound"] + 2)
        right = env.table([{"user": "u%d" % user, "tier": tier}
                           for user, tier in params["right_rows"]])
        if workers and crash:
            # Paced, so wall-clock checkpoints seal before the crash and
            # before the short right side ends them.
            table, right = (side.where(
                lambda row, s=pause: time.sleep(s) or True, (), "pace")
                for side, pause in ((table, 0.002), (right, 0.02)))
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
        shared, env = self._run(case, share=True, crash=params["crash"])
        independent, _ = self._run(case, share=False)
        # Worker processes stream collect output to the parent, which
        # keeps what a crashed attempt delivered: at-least-once, as sets.
        at_least_once = (params["crash"] and params.get(
            "backend", "cooperative") != "cooperative")
        for index, (got, expected) in enumerate(zip(shared, independent)):
            if at_least_once:
                got, expected = _distinct(got), _distinct(expected)
            if got != expected:
                return ("shared arrangements diverge from independent "
                        "planning at query %d (%r):\n  expected %r\n"
                        "  got      %r\n  crash=%s"
                        % (index, params["queries"][index], expected[:4],
                           got[:4], params["crash"]))
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
    strategy = WatermarkStrategy.for_bounded_out_of_orderness(
        lambda element: element[2], ooo_bound + 2)
    collected = (env.read(history)
                 .then_stream(lambda: live, cutover=cutover,
                              timestamp_fn=lambda element: element[2],
                              history_burst=history_burst)
                 .assign_timestamps_and_watermarks(strategy)
                 .key_by(lambda element: element[0])
                 .window(make_assigner(assigner_params))
                 .aggregate(_ValueProjectingAggregate(
                     make_aggregate(aggregate_name)))
                 .collect())
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
            "aggregate": random_aggregate_name(rng, ("sum", "count", "min",
                                                     "max")),
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
        return Case(self.name, root_seed, index, params, stream)

    def check(self, case: Case) -> Optional[str]:
        params = case.params
        elements = list(case.stream)
        history, live, cutover = split_for_backfill(
            elements, params["mode"], params["cutover_fraction"],
            params["overlap"])
        expected = reference.keyed_windows(params["assigner"], elements,
                                           params["aggregate"])
        backend = params.get("backend", "cooperative")
        config = EngineConfig(backend=backend) \
            if backend != "cooperative" else EngineConfig()
        got, env = run_hybrid_windows(
            history, live, cutover, params["assigner"],
            params["aggregate"], params["ooo_bound"],
            params["parallelism"], config,
            history_burst=params.get("history_burst", 4))
        mismatch = _diff(expected, got, "unified backfill")
        if mismatch is not None:
            return ("%s\n  mode=%s cutover=%r |history|=%d |live|=%d"
                    % (mismatch, params["mode"], cutover, len(history),
                       len(live)))
        audit = self._audit_seam(env, elements, history, live, cutover)
        if audit is not None:
            return ("%s\n  mode=%s cutover=%r |history|=%d |live|=%d"
                    % (audit, params["mode"], cutover, len(history),
                       len(live)))
        return None

    @staticmethod
    def _audit_seam(env, elements: List[tuple], history: List[tuple],
                    live: List[tuple],
                    cutover: Optional[int]) -> Optional[str]:
        """Zero gap / zero double-count: the cutover report must account
        for every record on both sides of the seam."""
        rows = env.job_report().get("cutover") or []
        if not rows:
            return "job report has no cutover section"
        emitted = sum(row["history_emitted"] + row["stream_emitted"]
                      for row in rows)
        history_seen = sum(row["history_emitted"] + row["history_skipped"]
                           for row in rows)
        stream_seen = sum(row["stream_emitted"] + row["stream_skipped"]
                          for row in rows)
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
