"""Integration: CuttyWindowOperator inside a full dataflow, compared
against the standard WindowOperator on the same stream."""

import copy
import importlib
import multiprocessing
import os

import pytest

from repro.api import Environment
from repro.cutty import (
    CuttyWindowOperator,
    DeltaWindows,
    PeriodicWindows,
    PunctuationWindows,
    SessionWindows,
)
from repro.cutty.sharing import SharedCuttyAggregator
from repro.observability import AggregationCostCounter
from repro.runtime.engine import EngineConfig
from repro.time import WatermarkStrategy
from repro.windowing import (
    CountAggregate,
    EventTimeSessionWindows,
    SlidingEventTimeWindows,
    SumAggregate,
)


def test_cutty_operator_sliding_sums_match_standard():
    # Stream of (key, value) with ts; compare per-window sums.
    data = [(("u%d" % (i % 3)), i % 5, i * 7) for i in range(200)]

    env1 = Environment(parallelism=2)
    standard = (env1.from_collection([((k, v), ts) for k, v, ts in data],
                                     timestamped=True)
                .key_by(lambda kv: kv[0])
                .window(SlidingEventTimeWindows.of(70, 35))
                .aggregate(SumOfSecond())
                .collect())
    env1.execute()
    standard_results = {(r.key, r.window.start): r.value
                        for r in standard.get()}

    # Cutty assumes per-key FIFO event order; a single source subtask
    # guarantees it (multiple sources interleave timestamps arbitrarily).
    env2 = Environment(parallelism=1)
    keyed = (env2.from_collection([((k, v), ts) for k, v, ts in data],
                                  timestamped=True)
             .key_by(lambda kv: kv[0]))
    node = keyed._connect_keyed(
        "cutty",
        lambda: CuttyWindowOperator(
            aggregate_factory=SumOfSecond,
            spec_factories={"q": lambda: PeriodicWindows(70, 35)}))
    from repro.api.stream import DataStream
    cutty = DataStream(env2, node).collect()
    env2.execute()
    cutty_results = {(r.key, r.start): r.value for r in cutty.get()}

    assert cutty_results == standard_results


def test_cutty_operator_sessions_match_standard():
    data = [(("u%d" % (i % 2)), 1, ts) for i, ts in enumerate(
        [0, 5, 10, 200, 210, 500, 505, 900])]

    env1 = Environment()
    standard = (env1.from_collection([((k, v), ts) for k, v, ts in data],
                                     timestamped=True)
                .key_by(lambda kv: kv[0])
                .window(EventTimeSessionWindows.with_gap(50))
                .aggregate(CountAggregate())
                .collect())
    env1.execute()
    standard_results = {(r.key, r.window.start, r.window.end): r.value
                        for r in standard.get()}

    env2 = Environment()
    keyed = (env2.from_collection([((k, v), ts) for k, v, ts in data],
                                  timestamped=True)
             .key_by(lambda kv: kv[0]))
    node = keyed._connect_keyed(
        "cutty",
        lambda: CuttyWindowOperator(
            aggregate_factory=CountAggregate,
            spec_factories={"q": lambda: SessionWindows(50)}))
    from repro.api.stream import DataStream
    cutty = DataStream(env2, node).collect()
    env2.execute()
    cutty_results = {(r.key, r.start, r.end): r.value for r in cutty.get()}

    assert cutty_results == standard_results


def test_cutty_operator_serves_multiple_queries_from_one_node():
    data = [(("k", 1), ts) for ts in range(0, 400, 4)]
    env = Environment()
    counter = AggregationCostCounter()
    keyed = (env.from_collection(data, timestamped=True)
             .key_by(lambda kv: kv[0]))
    node = keyed._connect_keyed(
        "cutty",
        lambda: CuttyWindowOperator(
            aggregate_factory=CountAggregate,
            spec_factories={
                "tumbling": lambda: PeriodicWindows(100),
                "sliding": lambda: PeriodicWindows(100, 20),
                "session": lambda: SessionWindows(10),
            },
            counter=counter))
    from repro.api.stream import DataStream
    results = DataStream(env, node).collect()
    env.execute()
    by_query = {}
    for r in results.get():
        by_query.setdefault(r.query_id, []).append(r)
    assert set(by_query) == {"tumbling", "sliding", "session"}
    # Tumbling [0,100) holds ts 0,4,...,96 -> 25 events.
    tumbling = {(r.start, r.end): r.value for r in by_query["tumbling"]}
    assert tumbling[(0, 100)] == 25
    # Gap 10 > max inter-arrival 4: one big session of all 100 events.
    session = {(r.start, r.end): r.value for r in by_query["session"]}
    assert session == {(0, 406): 100}
    # One lift per record despite three queries.
    assert counter.lifts.value == len(data)


class SumOfSecond:
    """Aggregate over (key, value) tuples summing the numeric field."""

    invertible = True
    commutative = True

    def create_accumulator(self):
        return 0

    def add(self, value, acc):
        return acc + value[1]

    def merge(self, a, b):
        return a + b

    def get_result(self, acc):
        return acc

    def retract(self, value, acc):
        return acc - value[1]


# -- specs that hold a callable, on a durable checkpoint store ----------------


def _run_callable_specs(**config):
    """A DeltaWindows and a PunctuationWindows query, both built around
    a lambda, next to a periodic one.  One source subtask keeps per-key
    FIFO order; the Cutty operator runs at parallelism 2."""
    data = [((i % 7, (i * 37) % 23), i) for i in range(6000)]
    env = Environment(parallelism=2, config=EngineConfig(**config))
    results = (
        env.from_source(lambda: data, parallelism=1)
        .assign_timestamps_and_watermarks(
            WatermarkStrategy.for_monotonic_timestamps(lambda pair: pair[1]))
        .map(lambda pair: pair[0])
        .key_by(lambda event: event[0])
        .shared_windows(SumOfSecond, {
            "delta": lambda: DeltaWindows(5.0, value_fn=lambda e: e[1]),
            "punctuation": lambda: PunctuationWindows(lambda e: e[1] == 0),
            "periodic": lambda: PeriodicWindows(100)})
        .collect())
    job = env.execute()
    return sorted(results.get()), job


@pytest.mark.parametrize("backend", [
    {},
    pytest.param(
        {"backend": "multiprocess", "num_workers": 2},
        marks=pytest.mark.skipif(
            "fork" not in multiprocessing.get_all_start_methods(),
            reason="multiprocess backend requires fork")),
], ids=["cooperative", "two-workers"])
def test_spec_holding_a_callable_takes_durable_checkpoints(tmp_path, backend):
    """Constructor arguments are not state: a checkpoint holds a spec's
    position, so a lambda in the spec never reaches pickle."""
    expected, _ = _run_callable_specs()
    assert {row.query_id for row in expected} == {
        "delta", "punctuation", "periodic"}
    rows, job = _run_callable_specs(checkpoint_interval_ms=5,
                                    checkpoint_dir=str(tmp_path), **backend)
    assert job.checkpoints_completed >= 2
    assert rows == expected


# -- what the benchmark's shared_windows program costs ------------------------


def test_quick_shared_windows_pays_per_boundary_not_per_query(
        monkeypatch, tmp_path):
    """Counts, not wall clock, on the benchmark's own ``shared_windows``
    program at its ``--quick`` size: spec hooks and eviction are paid
    per boundary, a snapshot per key -- not per record x query."""
    benchmarks = os.path.join(os.path.dirname(__file__), os.pardir,
                              os.pardir, "benchmarks")
    monkeypatch.syspath_prepend(benchmarks)
    monkeypatch.syspath_prepend(os.path.join(benchmarks, "e14"))
    workload = importlib.import_module("workloads").SharedWindows()
    events = workload.generate(0, 0.05)
    keys = len({event.user for event in events})
    queries = len(workload.periodic) + len(workload.sessions)

    calls = {"on_time": 0, "reporting": 0, "events": 0, "evict": 0,
             "snapshots": 0}
    copied = []
    snapshotting = []

    def counting_on_time(on_time):
        def wrapper(self, ts):
            found = on_time(self, ts)
            calls["on_time"] += 1
            calls["reporting"] += bool(found)
            calls["events"] += len(found)
            return found
        return wrapper

    for spec in (PeriodicWindows, SessionWindows):
        monkeypatch.setattr(spec, "on_time", counting_on_time(spec.on_time))

    evict = SharedCuttyAggregator._evict
    snapshot_state = CuttyWindowOperator.snapshot_state
    finish = CuttyWindowOperator.finish
    deepcopy = copy.deepcopy

    def counting_evict(self):
        calls["evict"] += 1
        return evict(self)

    def counting_snapshot_state(self):
        calls["snapshots"] += len(self._per_key)
        snapshotting.append(True)
        try:
            return snapshot_state(self)
        finally:
            snapshotting.pop()

    def recording_deepcopy(value, *args):
        if snapshotting:
            copied.append(value)
        return deepcopy(value, *args)

    def finish_after_snapshot(self):
        # The --quick input ends before its first checkpoint is due:
        # take one per subtask where the most state is live.
        self.snapshot_state()
        return finish(self)

    monkeypatch.setattr(SharedCuttyAggregator, "_evict", counting_evict)
    monkeypatch.setattr(CuttyWindowOperator, "snapshot_state",
                        counting_snapshot_state)
    monkeypatch.setattr(CuttyWindowOperator, "finish", finish_after_snapshot)
    monkeypatch.setattr(copy, "deepcopy", recording_deepcopy)

    job = workload.build(events, str(tmp_path))
    job.env.execute()
    score = workload.score(job, workload.expect(events), 0.0, 0.0)
    assert score.attempted > 100 and score.failed == 0
    assert calls["reporting"] > keys * queries
    # An on_time call reports a boundary, or is one of the few that find
    # the horizon early (a key's first element; an element landing
    # exactly on a session's horizon).  Calls that report are at most
    # the boundary events, so this implies the looser per-event bound.
    assert calls["reporting"] <= calls["events"]
    assert calls["on_time"] <= calls["reporting"] + queries * keys
    # Eviction runs with the elements that applied a boundary.
    assert calls["evict"] <= calls["reporting"] + keys
    # A snapshot copies one thing per key, the open partial (a number
    # here, None for an empty slice) -- never a container of slices or
    # a spec's attributes.
    assert calls["snapshots"] == keys
    assert 0 < len(copied) <= calls["snapshots"]
    assert all(value is None or isinstance(value, (int, float))
               for value in copied)
