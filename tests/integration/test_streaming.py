"""Integration tests: streaming programs end-to-end through the engine."""

import pytest

from repro.api import Environment
from repro.runtime.engine import EngineConfig
from repro.runtime.operators import ProcessFunction
from repro.state.descriptors import ValueStateDescriptor
from repro.time.watermarks import WatermarkStrategy
from repro.windowing import (
    CountAggregate,
    CountTrigger,
    EventTimeSessionWindows,
    GlobalWindows,
    SlidingEventTimeWindows,
    SumAggregate,
    TumblingEventTimeWindows,
)


def test_map_filter_flatmap_pipeline():
    env = Environment()
    result = (env.from_collection(range(10))
              .map(lambda x: x * 2)
              .filter(lambda x: x % 4 == 0)
              .flat_map(lambda x: [x, x + 1])
              .collect())
    env.execute()
    assert sorted(result.get()) == sorted(
        [x for v in range(10) if (v * 2) % 4 == 0 for x in (v * 2, v * 2 + 1)])


def test_parallel_execution_preserves_multiset():
    env = Environment(parallelism=4)
    result = env.from_collection(range(100)).map(lambda x: x + 1).collect()
    env.execute()
    assert sorted(result.get()) == list(range(1, 101))


def test_keyed_rolling_reduce_emits_running_aggregates():
    env = Environment(parallelism=2)
    data = [("a", 1), ("a", 2), ("b", 10), ("a", 3), ("b", 20)]
    result = (env.from_collection(data)
              .key_by(lambda v: v[0])
              .reduce(lambda x, y: (x[0], x[1] + y[1]))
              .collect())
    env.execute()
    per_key = {}
    for key, total in result.get():
        per_key.setdefault(key, []).append(total)
    assert per_key["a"] == [1, 3, 6]
    assert per_key["b"] == [10, 30]


def test_keyed_sum_and_count():
    env = Environment(parallelism=3)
    data = [("a", 2)] * 5 + [("b", 7)] * 3
    sums = (env.from_collection(data)
            .key_by(lambda v: v[0])
            .sum(lambda v: v[1])
            .collect())
    env.execute()
    finals = {}
    for key, running in sums.get():
        finals[key] = running  # last write wins per key
    assert finals == {"a": 10, "b": 21}


def test_union_merges_streams():
    env = Environment()
    left = env.from_collection([1, 2, 3])
    right = env.from_collection([10, 20])
    result = left.union(right).map(lambda x: x).collect()
    env.execute()
    assert sorted(result.get()) == [1, 2, 3, 10, 20]


def test_keyed_process_function_with_state():
    class Dedup(ProcessFunction):
        def open(self, ctx):
            self.seen = ctx.get_state(ValueStateDescriptor("seen"))

        def process_element(self, value, ctx):
            if self.seen.value() is None:
                self.seen.update(True)
                ctx.emit(value)

    env = Environment(parallelism=2)
    data = ["x", "y", "x", "z", "y", "x"]
    result = (env.from_collection(data)
              .key_by(lambda v: v)
              .process(Dedup())
              .collect())
    env.execute()
    assert sorted(result.get()) == ["x", "y", "z"]


def test_tumbling_event_time_window_counts():
    env = Environment(parallelism=2)
    data = [(("k", i), i * 10) for i in range(10)]  # ts 0..90
    result = (env.from_collection(data, timestamped=True)
              .key_by(lambda v: v[0])
              .window(TumblingEventTimeWindows.of(30))
              .aggregate(CountAggregate())
              .collect())
    env.execute()
    counts = {(r.key, r.window.start): r.value for r in result.get()}
    assert counts == {("k", 0): 3, ("k", 30): 3, ("k", 60): 3, ("k", 90): 1}


def test_sliding_window_sums():
    env = Environment()
    data = [(1, t) for t in range(0, 100, 10)]  # one event each 10ms
    result = (env.from_collection(data, timestamped=True)
              .key_by(lambda v: 0)
              .window(SlidingEventTimeWindows.of(40, 20))
              .aggregate(SumAggregate())
              .collect())
    env.execute()
    by_window = {r.window.start: r.value for r in result.get()}
    # Window [0, 40) sees ts 0,10,20,30 -> 4 events of value 1.
    assert by_window[0] == 4
    assert by_window[20] == 4
    # Trailing partial windows have fewer elements.
    assert by_window[80] == 2


def test_session_windows_split_on_gap():
    env = Environment()
    timestamps = [0, 10, 20, 100, 110, 300]
    data = [("u", ts) for ts in timestamps]
    result = (env.from_collection(data, timestamped=True)
              .key_by(lambda v: v[0])
              .window(EventTimeSessionWindows.with_gap(50))
              .aggregate(CountAggregate())
              .collect())
    env.execute()
    sessions = sorted((r.window.start, r.window.end, r.value)
                      for r in result.get())
    assert sessions == [(0, 70, 3), (100, 160, 2), (300, 350, 1)]


def test_out_of_order_events_with_bounded_watermarks():
    env = Environment()
    # Events up to 20ms out of order.
    data = [("k", 5), ("k", 25), ("k", 15), ("k", 55), ("k", 35), ("k", 95)]
    strategy = WatermarkStrategy.for_bounded_out_of_orderness(
        lambda v: v[1], 20)
    result = (env.from_collection(data)
              .assign_timestamps_and_watermarks(strategy)
              .key_by(lambda v: v[0])
              .window(TumblingEventTimeWindows.of(30))
              .aggregate(CountAggregate())
              .collect())
    env.execute()
    counts = {r.window.start: r.value for r in result.get()}
    assert counts == {0: 3, 30: 2, 90: 1}


def test_late_events_beyond_lateness_are_dropped():
    env = Environment()
    # Monotonic watermarks: the event at ts=5 arriving after ts=100 is late.
    data = [("k", 10), ("k", 100), ("k", 5), ("k", 200)]
    strategy = WatermarkStrategy.for_monotonic_timestamps(lambda v: v[1])
    result = (env.from_collection(data)
              .assign_timestamps_and_watermarks(strategy)
              .key_by(lambda v: v[0])
              .window(TumblingEventTimeWindows.of(50))
              .aggregate(CountAggregate())
              .collect())
    env.execute()
    counts = {r.window.start: r.value for r in result.get()}
    # Window [0,50) fired with only the ts=10 event; ts=5 was dropped.
    assert counts[0] == 1
    engine = env.last_engine
    dropped = sum(
        task.metrics.counters().get("late_records_dropped", 0)
        for task in engine.tasks)
    assert dropped == 1


def test_count_trigger_on_global_windows():
    env = Environment()
    result = (env.from_collection(range(10))
              .key_by(lambda v: 0)
              .window(GlobalWindows.create())
              .trigger(CountTrigger(4))
              .aggregate(SumAggregate())
              .collect())
    env.execute()
    values = [r.value for r in result.get()]
    # Two full batches of 4 fire; the trailing 2 elements never trigger.
    assert values == [0 + 1 + 2 + 3, 4 + 5 + 6 + 7]


def test_window_apply_sees_raw_elements():
    env = Environment()
    data = [(("k", i), i * 10) for i in range(6)]
    result = (env.from_collection(data, timestamped=True)
              .key_by(lambda v: v[0])
              .window(TumblingEventTimeWindows.of(30))
              .apply(lambda key, window, values:
                     [(key, window.start, sorted(v[1] for v in values))])
              .collect())
    env.execute()
    by_window = {start: items for _, start, items in result.get()}
    assert by_window[0] == [0, 1, 2]
    assert by_window[30] == [3, 4, 5]


def test_connected_keyed_streams_share_state_by_key():
    env = Environment(parallelism=2)

    def on_control(value, ctx):
        state = ctx.get_state(ValueStateDescriptor("blocked"))
        state.update(True)

    def on_data(value, ctx):
        state = ctx.get_state(ValueStateDescriptor("blocked"))
        if not state.value():
            ctx.emit(value)

    control = env.from_collection(["bad"])
    data = env.from_collection([("bad", 1), ("good", 2), ("good", 3)])
    result = (control.connect(data)
              .key_by(lambda c: c, lambda d: d[0])
              .process(on_control, on_data)
              .collect())
    env.execute()
    values = sorted(result.get())
    # Control stream ordering relative to data is not deterministic in a
    # real system; here the single-threaded scheduler drains the tiny
    # control stream first, so "bad" is blocked.
    assert values == [("good", 2), ("good", 3)]


@pytest.mark.parametrize("override,reached,label", [
    ("broadcast", [0, 1], "broadcast"),
    ("rebalance", [0], "rebalance"),
    ("global_", [0], "global"),
], ids=["broadcast", "rebalance", "global"])
def test_connect_honours_an_override_on_either_input(override, reached,
                                                     label):
    # The second input used to be rewired by parallelism alone, so a
    # broadcast control record reached one subtask of two.
    def control_on(side):
        env = Environment(parallelism=2)
        data = env.from_collection(list(range(4)))
        control = getattr(env.from_source(lambda: ["m"], parallelism=1,
                                          name="ctrl"), override)()
        ignore = lambda value, ctx: None
        seen = lambda value, ctx: ctx.emit(ctx.subtask_index)
        connected, fns = ((data.connect(control), (ignore, seen))
                          if side == 1 else
                          (control.connect(data), (seen, ignore)))
        result = connected.process(*fns, parallelism=2).collect()
        assert "co-process via %s" % label in env.explain()
        env.execute()
        return sorted(result.get())

    assert control_on(1) == control_on(0) == reached


def test_rebalance_spreads_skewed_input():
    env = Environment(parallelism=1)
    counts = []
    stream = env.from_collection(range(100)).rebalance().map(lambda x: x)
    # route to a 4-way map stage then collect
    result = stream.collect()
    env.execute()
    assert len(result.get()) == 100


def test_explain_contains_chain_information():
    env = Environment(parallelism=2)
    env.from_collection(range(5)).map(lambda x: x).filter(bool).collect()
    plan = env.explain()
    assert "Logical plan" in plan
    assert "Physical plan" in plan
    # source -> map -> filter should be one chain of 3.
    assert "chain=3" in plan


def test_collect_before_execute_raises():
    env = Environment()
    result = env.from_collection([1]).collect()
    with pytest.raises(RuntimeError):
        result.get()


def test_backpressure_small_channels_still_complete():
    env = Environment(
        parallelism=2,
        config=EngineConfig(channel_capacity=2, elements_per_step=1))
    result = (env.from_collection(range(200))
              .key_by(lambda v: v % 7)
              .sum(lambda v: v)
              .collect())
    env.execute()
    assert len(result.get()) == 200


def test_processing_time_windows_fire_via_simulated_clock():
    from repro.windowing import TumblingProcessingTimeWindows
    env = Environment(
        config=EngineConfig(elements_per_step=1))
    result = (env.from_collection(range(50))
              .key_by(lambda v: 0)
              .window(TumblingProcessingTimeWindows.of(5))
              .aggregate(CountAggregate())
              .collect())
    env.execute()
    total = sum(r.value for r in result.get())
    assert total == 50  # every element lands in exactly one fired window
