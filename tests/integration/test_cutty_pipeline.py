"""Integration: CuttyWindowOperator inside a full dataflow, compared
against the standard WindowOperator on the same stream."""

from repro.api import Environment
from repro.cutty import CuttyWindowOperator, PeriodicWindows, SessionWindows
from repro.metrics import AggregationCostCounter
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
