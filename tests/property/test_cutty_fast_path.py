"""Differential pinning of Cutty's gated per-element path and of its
copy-free snapshots.

(a) ``SharedCuttyAggregator.insert`` asks a spec's ``on_time`` only once
    an element reaches the spec's published horizon, calls the element
    hooks only of specs that define them, and recomputes the eviction
    horizon only where a boundary moved it.  :class:`EveryHookAggregator`
    below is the loop it replaced, written out -- every hook of every
    query on every element, sort, evict every element -- and the two
    must agree, element by element, on the result sequence, the lift /
    combine / lower counts, ``query_stats`` and ``live_slices``.
(b) A snapshot is a view of the live aggregator, serialised by the
    task's :class:`TaskSnapshot`: taken at every position, restored into
    a fresh aggregator (twice over), continued, it must equal the
    uninterrupted run even for an aggregate that mutates its accumulator
    in place; and an operator snapshot must survive ``pickle`` although
    its specs were built around lambdas.
(c) The benchmark-shaped job (three periodic queries and a session
    query behind the reorder stage) crash-restored on both backends
    against the unfaulted run.

Streams derive from ``REPRO_SEED`` (default 0).
"""

import multiprocessing
import pickle
import time
from functools import partial

import pytest

from repro.api.environment import Environment
from repro.connectors.sinks import TransactionalTextFileSink
from repro.cutty import (
    CountWindows,
    CuttyWindowOperator,
    DeltaWindows,
    PeriodicWindows,
    PunctuationWindows,
    SessionWindows,
    SharedCuttyAggregator,
    WindowSpec,
)
from repro.cutty.specs import begin, end
from repro.runtime.engine import EngineConfig
from repro.runtime.faults import CRASH, FaultEvent, FaultInjector
from repro.runtime.restart import FixedDelayRestart
from repro.state import TaskSnapshot
from repro.testing.seeds import rng_for, root_seed
from repro.time import WatermarkStrategy
from repro.windowing.aggregates import AggregateFunction, SumAggregate

ROOT = root_seed(default=0)  # REPRO_SEED overridable, default pinned


# -- the reference: the loop the gated insert replaced ------------------------


class EveryHookAggregator(SharedCuttyAggregator):
    """``insert`` as it was before horizons: nothing is skipped."""

    def insert(self, value, ts):
        self.counter.records.inc()
        results = []
        seq = self._seq
        self._seq += 1
        if self.max_timestamp_seen is None or ts > self.max_timestamp_seen:
            self.max_timestamp_seen = ts
        timed = []
        for query_id, state in self._queries.items():
            for event in state.spec.on_time(ts):
                timed.append((event[1], 0 if event[0] == "begin" else 1,
                              query_id, event))
        timed.sort(key=lambda item: (item[0], item[1]))
        for _, _, query_id, event in timed:
            self._apply_event(query_id, event, results)
        for query_id, state in self._queries.items():
            for event in state.spec.before_element(value, ts, seq):
                self._apply_event(query_id, event, results)
        if self._open_count == 0:
            self._open_partial = self._aggregate.create_accumulator()
        self._open_partial = self._aggregate.add(value, self._open_partial)
        self._open_count += 1
        for query_id, state in self._queries.items():
            for event in state.spec.after_element(value, ts, seq):
                self._apply_event(query_id, event, results)
        self._evict()
        self.counter.partials.set(self.live_slices)
        return results


# -- specs and aggregates the battery draws from ------------------------------


class HorizonlessTumbling(WindowSpec):
    """A third-party spec: overrides ``on_time``, knows nothing of
    ``_horizon`` or ``_cursor`` (so it is asked on every element and a
    checkpoint holds all of its attributes)."""

    def __init__(self, size):
        self.size = size
        self.opened = None

    def on_time(self, ts):
        events = []
        if self.opened is None:
            self.opened = ts - ts % self.size
            events.append(begin(self.opened, self.opened))
        while self.opened + self.size <= ts:
            events.append(end(self.opened + self.size, self.opened,
                              (self.opened, self.opened + self.size)))
            self.opened += self.size
            events.append(begin(self.opened, self.opened))
        return events

    def flush(self, max_ts):
        if self.opened is None:
            return []
        return [end(self.opened + self.size, self.opened,
                    (self.opened, self.opened + self.size))]


class MarkerBracketed(WindowSpec):
    """A third-party spec with one hook only: a window opens at a value
    divisible by 7 and closes at the next one divisible by 5, so
    elements arrive while no window is open, a begin and an end can
    each come alone, and nothing is due at the first element."""

    def __init__(self):
        self.opened = None

    def before_element(self, value, ts, seq):
        if self.opened is None and value % 7 == 0:
            self.opened = seq
            return [begin(ts, seq)]
        if self.opened is not None and value % 5 == 0:
            opened, self.opened = self.opened, None
            return [end(ts, opened, (opened, seq))]
        return []


def is_marker(value):
    return value % 7 == 0


#: Each entry draws one query's arguments and returns its spec factory
#: (the reference and the restored aggregators need specs of their own).
SPEC_MENU = [
    lambda rng: partial(PeriodicWindows, rng.choice([10, 40, 100])),
    lambda rng: partial(PeriodicWindows, *rng.choice(
        [(30, 10), (100, 20), (64, 8), (25, 10), (300, 100)])),
    lambda rng: partial(SessionWindows, rng.choice([3, 8, 20])),
    lambda rng: partial(CountWindows, *rng.choice([(5, 5), (9, 3), (4, 1)])),
    lambda rng: partial(DeltaWindows, rng.choice([3.0, 6.0]),
                        value_fn=lambda value: value),
    lambda rng: partial(PunctuationWindows, is_marker),
    lambda rng: partial(HorizonlessTumbling, rng.choice([15, 50])),
    lambda rng: MarkerBracketed,
]


def draw_queries(rng, count):
    return {"q%d" % index: rng.choice(SPEC_MENU)(rng)
            for index in range(count)}


def build(cls, factories, aggregate=SumAggregate):
    return cls(aggregate(), {query_id: factory()
                             for query_id, factory in factories.items()})


def next_timestamp(rng, ts, aggregator):
    """Mostly small steps, often none (duplicate timestamps), sometimes
    a pause long enough to close sessions -- and every few elements
    exactly the horizon some spec currently publishes."""
    roll = rng.random()
    if roll < 0.2:
        horizons = [spec._horizon for _, spec in aggregator._on_time
                    if spec._horizon is not None and spec._horizon >= ts]
        if horizons:
            return rng.choice(horizons)
    if roll < 0.45:
        return ts
    if roll < 0.9:
        return ts + rng.randint(1, 4)
    return ts + rng.randint(5, 60)


def observable(aggregator):
    counter = aggregator.counter
    return {"lift": counter.lifts.value, "combine": counter.combines.value,
            "lower": counter.lowers.value, "results": counter.results.value,
            "query_stats": aggregator.query_stats,
            "live_slices": aggregator.live_slices,
            "max_live": counter.max_live_partials}


class Collect(AggregateFunction):
    """Mutates its accumulator in place on ``add`` -- what a snapshot's
    copy of the open partial is there for -- and never on ``merge``."""

    def create_accumulator(self):
        return []

    def add(self, value, accumulator):
        accumulator.append(value)
        return accumulator

    def merge(self, acc1, acc2):
        return acc1 + acc2

    def get_result(self, accumulator):
        return tuple(accumulator)


# -- (a) gated insert == every hook, every element ----------------------------


@pytest.mark.parametrize("query_count", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("case", range(6))
def test_gated_insert_equals_every_hook_loop(query_count, case):
    rng = rng_for(ROOT, "cutty-fast-path", "insert", query_count, case)
    factories = draw_queries(rng, query_count)
    fast = build(SharedCuttyAggregator, factories)
    reference = build(EveryHookAggregator, factories)
    ts = rng.randint(0, 5000)
    on_horizon = 0
    for step in range(400):
        ts = next_timestamp(rng, ts, fast)
        on_horizon += any(spec._horizon == ts for _, spec in fast._on_time)
        value = rng.randint(-20, 20)
        where = "element %d (value %r, ts %d)" % (step, value, ts)
        assert fast.insert(value, ts) == reference.insert(value, ts), where
        assert observable(fast) == observable(reference), where
        if step == 250:
            # Nothing ends a stream for good: both carry on after a flush.
            assert fast.flush() == reference.flush()
    assert fast.flush() == reference.flush()
    assert observable(fast) == observable(reference)
    if fast._on_time and any(spec._cursor for _, spec in fast._on_time):
        assert on_horizon > 0, "no element landed on a published horizon"


def test_open_slice_is_live_before_any_boundary():
    """Elements that no window has begun for still open a slice."""
    fast = build(SharedCuttyAggregator, {"q": MarkerBracketed})
    reference = build(EveryHookAggregator, {"q": MarkerBracketed})
    for ts, value in enumerate((1, 2, 3, 7, 4, 5, 6)):
        assert fast.insert(value, ts) == reference.insert(value, ts)
        assert observable(fast) == observable(reference)
        assert fast.counter.max_live_partials >= 1


def test_every_spec_kind_is_drawn():
    kinds = set()
    for query_count in range(1, 7):
        for case in range(6):
            rng = rng_for(ROOT, "cutty-fast-path", "insert", query_count,
                          case)
            kinds.update(type(factory()).__name__ for factory
                         in draw_queries(rng, query_count).values())
    assert kinds == {"PeriodicWindows", "SessionWindows", "CountWindows",
                     "DeltaWindows", "PunctuationWindows",
                     "HorizonlessTumbling", "MarkerBracketed"}


def test_horizon_is_a_lower_bound_on_the_next_time_event():
    """The contract itself: while ``ts < _horizon``, ``on_time(ts)``
    reports nothing -- checked by asking anyway."""
    rng = rng_for(ROOT, "cutty-fast-path", "contract")
    for make in (lambda: PeriodicWindows(100, 20), lambda: PeriodicWindows(7),
                 lambda: SessionWindows(9)):
        spec = make()
        assert spec._horizon is None  # nothing promised before a position
        ts = rng.randint(0, 1000)
        for seq in range(500):
            ts += rng.choice([0, 0, 1, 2, 3, 15])
            horizon = spec._horizon
            events = spec.on_time(ts)
            if horizon is not None and ts < horizon:
                assert events == []
            spec.before_element(1, ts, seq)
            spec.after_element(1, ts, seq)
            assert spec._horizon is not None
        spec.flush(ts)
        restored = make()
        restored._seek(spec._position())
        assert restored._horizon == spec._horizon
        assert restored.__dict__ == spec.__dict__


# -- (b) snapshots: serialised once, alias-free -------------------------------


@pytest.mark.parametrize("case", range(4))
def test_snapshot_at_every_position_restores_the_uninterrupted_run(case):
    rng = rng_for(ROOT, "cutty-fast-path", "snapshot", case)
    factories = draw_queries(rng, 1 + case)
    # Closed slices live across snapshots, and more of them than the
    # tree's initial capacity (a restored tree must be laid out alike).
    factories["sliding"] = partial(PeriodicWindows, 30, 10)
    factories["long"] = partial(PeriodicWindows, 200, 100)
    stream, ts = [], rng.randint(0, 500)
    probe = build(SharedCuttyAggregator, factories)
    for _ in range(90):
        ts = next_timestamp(rng, ts, probe)
        stream.append((rng.randint(-20, 20), ts))
        probe.insert(*stream[-1])

    def finish(aggregator, position):
        emitted = [aggregator.insert(value, ts)
                   for value, ts in stream[position:]]
        return emitted + [aggregator.flush()], observable(aggregator)

    def checkpointed(aggregator):
        # What the task's checkpoint keeps of the operator state.
        return TaskSnapshot(("1-cutty", 0), {}, aggregator.snapshot())

    original = build(SharedCuttyAggregator, factories, Collect)
    snapshots, emitted = [checkpointed(original)], []
    for value, ts in stream:
        emitted.append(original.insert(value, ts))
        snapshots.append(checkpointed(original))
    emitted.append(original.flush())
    expected_state = observable(original)
    states = [snapshot.operator_state for snapshot in snapshots]
    assert any(state["open_count"] for state in states)
    assert any(len(state["slices"]) > 8 for state in states)

    # Every snapshot was taken before the elements after it arrived and
    # is restored only now, after all of them did -- twice, the second
    # time after the first restored aggregator ran to the end.
    for position, snapshot in enumerate(snapshots):
        for attempt in range(2):
            restored = build(SharedCuttyAggregator, factories, Collect)
            restored.restore(snapshot.operator_state)
            tail, state = finish(restored, position)
            assert tail == emitted[position:], (position, attempt)
            assert state["query_stats"] == expected_state["query_stats"]
            assert state["live_slices"] == expected_state["live_slices"]


def test_operator_snapshot_pickles_with_callable_bearing_specs():
    rng = rng_for(ROOT, "cutty-fast-path", "pickle")
    spec_factories = {
        "delta": lambda: DeltaWindows(4.0, value_fn=lambda v: v[1]),
        "punctuation": lambda: PunctuationWindows(lambda v: v[1] % 5 == 0),
        "sliding": lambda: PeriodicWindows(40, 10),
        "idle": lambda: SessionWindows(6),
        "third-party": lambda: HorizonlessTumbling(25),
    }

    class PairCollect(Collect):
        def add(self, value, accumulator):
            accumulator.append(value[1])
            return accumulator

    def operator():
        return CuttyWindowOperator(PairCollect, spec_factories)

    def feed(op, records):
        return [(key, result) for key, value, ts in records
                for result in op._aggregator_for(key).insert(value, ts)]

    records, ts = [], 0
    for _ in range(600):
        ts += rng.choice([0, 1, 1, 2, 12])
        records.append((rng.randrange(5), (ts, rng.randint(0, 30)), ts))
    head, tail = records[:350], records[350:]

    original = operator()
    feed(original, head)
    state = pickle.loads(pickle.dumps(original.snapshot_state()))
    expected = feed(original, tail)

    restored = operator()
    restored.restore_state(state)
    assert feed(restored, tail) == expected != []
    assert (restored.sharing_stats()["queries"]
            == original.sharing_stats()["queries"])
    assert (restored.sharing_stats()["live_slices"]
            == original.sharing_stats()["live_slices"])
    # Position only: no constructor argument travels in a checkpoint.
    for snapshot in state.values():
        assert set(snapshot["specs"]["delta"]) == {
            "_window_start", "_opening_value", "_last_ts"}
        assert set(snapshot["specs"]["sliding"]) == {
            "_next_begin", "_next_end_start", "_horizon"}


# -- (c) the benchmark-shaped job, crash-restored -----------------------------

EVENTS = 1500
USERS = 12
BOUND_MS = 5
QUERIES = {
    "p1s": lambda: PeriodicWindows(100, 10),
    "p5s": lambda: PeriodicWindows(500, 50),
    "p30s": lambda: PeriodicWindows(3000, 100),
    "idle200": lambda: SessionWindows(20),
}


class AmountSum(SumAggregate):
    def add(self, value, accumulator):
        return accumulator + value[1]


def click_events():
    """(user, amount, ts): two events per millisecond, a tenth of them
    displaced backwards within the watermark bound."""
    rng = rng_for(ROOT, "cutty-fast-path", "clicks")
    events = []
    for index in range(EVENTS):
        ts = index // 2
        if rng.random() < 0.1:
            ts = max(0, ts - rng.randint(1, BOUND_MS))
        events.append((rng.randrange(USERS), rng.randint(1, 99), ts))
    return events


def throttle(event):
    if event[2] % 2:
        time.sleep(0.001)
    return event


def run_shared_windows(target, config, throttled=False):
    events = click_events()
    env = Environment(parallelism=2, config=config)
    stream = (env.from_source(lambda: events, parallelism=1, name="clicks")
              .assign_timestamps_and_watermarks(
                  WatermarkStrategy.for_bounded_out_of_orderness(
                      lambda event: event[2], BOUND_MS)))
    if throttled:
        stream = stream.map(throttle, name="throttle")
    (stream.key_by(lambda event: event[0])
        .shared_windows(AmountSum, QUERIES, reorder=True)
        .add_sink(TransactionalTextFileSink(
            target, formatter=lambda row: "%s %s %s %s %s" % row),
            parallelism=1))
    job = env.execute()
    with open(target) as handle:
        return sorted(line.rstrip("\n") for line in handle), job


def test_shared_windows_job_restores_on_the_cooperative_backend(tmp_path):
    expected, _ = run_shared_windows(
        str(tmp_path / "oracle.txt"),
        EngineConfig(checkpoint_interval_ms=5, elements_per_step=4))
    assert len(expected) > EVENTS // 2
    assert {line.split()[1] for line in expected} == set(QUERIES)

    # Mid-stream, after 3 and after 6 sealed checkpoints (so the second
    # crash restores a later one).
    faults = FaultInjector([FaultEvent(CRASH, after_checkpoints=3),
                            FaultEvent(CRASH, after_checkpoints=6)])
    rows, job = run_shared_windows(
        str(tmp_path / "crashed.txt"),
        EngineConfig(checkpoint_interval_ms=5, elements_per_step=4,
                     restart_strategy=FixedDelayRestart(max_restarts=3,
                                                        delay_ms=0),
                     faults=faults))
    assert len(faults.applied) == 2 and job.restarts == 2
    assert rows == expected


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="multiprocess backend requires the fork start method")
def test_shared_windows_job_survives_sigkill_on_two_workers(tmp_path):
    expected, _ = run_shared_windows(str(tmp_path / "oracle.txt"),
                                     EngineConfig())
    faults = FaultInjector([FaultEvent(CRASH, after_checkpoints=2,
                                       subtask="cutty-window", target=1)])
    rows, job = run_shared_windows(
        str(tmp_path / "killed.txt"),
        EngineConfig(backend="multiprocess", num_workers=2,
                     checkpoint_interval_ms=40,
                     checkpoint_dir=str(tmp_path / "chk"),
                     restart_strategy=FixedDelayRestart(max_restarts=10,
                                                        delay_ms=0),
                     faults=faults),
        throttled=True)
    assert faults.applied, "the kill never fired"
    assert job.restarts >= 1
    assert rows == expected
    leaked = [p for p in multiprocessing.active_children() if p.is_alive()]
    assert not leaked, "worker processes leaked: %r" % leaked
