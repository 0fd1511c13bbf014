"""Tests for the extension features: event-time reordering, the
shared_windows public API, composed (multi-measure) aggregates, and the
late-data side output."""

import random

import pytest

from repro.api import Environment
from repro.cutty import CuttyAggregator, PeriodicWindows, SessionWindows
from repro.metrics import AggregationCostCounter
from repro.runtime.elements import Record
from repro.runtime.reorder import WatermarkReorderOperator
from repro.time.watermarks import WatermarkStrategy
from repro.windowing import (
    ComposedAggregate,
    CountAggregate,
    MaxAggregate,
    SlidingEventTimeWindows,
    SumAggregate,
    TumblingEventTimeWindows,
)


class TestWatermarkReorder:
    def test_reorders_within_watermark_bound(self):
        env = Environment()
        data = [("a", 30), ("b", 10), ("c", 20), ("d", 60), ("e", 40)]
        strategy = WatermarkStrategy.for_bounded_out_of_orderness(
            lambda v: v[1], 30)
        stream = (env.from_collection(data)
                  .assign_timestamps_and_watermarks(strategy))
        node = stream._connect("reorder", WatermarkReorderOperator)
        from repro.api.stream import DataStream
        result = DataStream(env, node).collect(with_timestamps=True)
        env.execute()
        timestamps = [ts for _, ts in result.get()]
        assert timestamps == sorted(timestamps)
        assert len(timestamps) == len(data)

    def test_requires_timestamps(self):
        env = Environment()
        stream = env.from_collection([1, 2, 3])
        node = stream._connect("reorder", WatermarkReorderOperator)
        from repro.api.stream import DataStream
        DataStream(env, node).collect()
        with pytest.raises(ValueError):
            env.execute()

    def test_snapshot_restore(self):
        operator = WatermarkReorderOperator()

        class _Metrics:
            @staticmethod
            def gauge(name):
                from repro.metrics import Gauge
                return Gauge(name)

        class _Ctx:
            metrics = _Metrics()

        operator.open(_Ctx())
        operator.process(Record("late", 5))
        operator.process(Record("later", 9))
        state = operator.snapshot_state()

        restored = WatermarkReorderOperator()
        emitted = []
        restored.open(_Ctx())
        restored.ctx.emit_record = emitted.append
        restored.restore_state(state)
        restored.on_watermark(10)
        assert [record.timestamp for record in emitted] == [5, 9]

    def test_buffered_gauge_reads_peak_and_current_size(self):
        """The gauge is set where the heap can peak or fall, not per
        record: its high-water mark is still the true peak."""
        from repro.metrics import Gauge
        gauge = Gauge("reorder_buffered")

        class _Ctx:
            class metrics:
                gauge = staticmethod(lambda name: gauge)
            emit_record = staticmethod(lambda record: None)

        operator = WatermarkReorderOperator()
        operator.open(_Ctx())
        for ts in (40, 10, 30, 20, 50):
            operator.process(Record("v", ts))
        operator.on_watermark(5)                 # releases nothing
        assert (gauge.value, gauge.max_value) == (5, 5)
        operator.on_watermark(30)
        assert (gauge.value, gauge.max_value) == (2, 5)
        for ts in (60, 70, 80, 90):
            operator.process(Record("v", ts))
        operator.snapshot_state()                # a checkpoint between releases
        assert (gauge.value, gauge.max_value) == (6, 6)
        operator.process(Record("v", 100))
        operator.finish()
        assert (gauge.value, gauge.max_value) == (0, 7)


class TestSharedWindowsApi:
    def _events(self, n=300, seed=3, disorder=25):
        """Per-key streams with bounded out-of-orderness."""
        rng = random.Random(seed)
        events = []
        for index in range(n):
            true_ts = index * 10
            observed_order = true_ts + rng.randint(0, disorder)
            events.append((observed_order, ("k%d" % (index % 3), 1, true_ts)))
        events.sort(key=lambda pair: pair[0])  # arrival order
        return [value for _, value in events]

    def test_shared_windows_matches_standard_operator_with_reorder(self):
        data = self._events()
        strategy = WatermarkStrategy.for_bounded_out_of_orderness(
            lambda v: v[2], 30)

        env1 = Environment(parallelism=2)
        standard = (env1.from_collection(data)
                    .assign_timestamps_and_watermarks(strategy)
                    .key_by(lambda v: v[0])
                    .window(SlidingEventTimeWindows.of(200, 100))
                    .aggregate(CountAggregate())
                    .collect())
        env1.execute()
        expected = {(r.key, r.window.start): r.value
                    for r in standard.get()}

        env2 = Environment(parallelism=2)
        shared = (env2.from_collection(data)
                  .assign_timestamps_and_watermarks(strategy)
                  .key_by(lambda v: v[0])
                  .shared_windows(
                      CountAggregate,
                      {"q": lambda: PeriodicWindows(200, 100)},
                      reorder=True)
                  .collect())
        env2.execute()
        actual = {(r.key, r.start): r.value for r in shared.get()}
        assert actual == expected

    def test_shared_windows_without_reorder_on_ordered_stream(self):
        data = [(("k", 1), ts) for ts in range(0, 1000, 10)]
        env = Environment()
        results = (env.from_collection(data, timestamped=True)
                   .key_by(lambda v: v[0])
                   .shared_windows(
                       CountAggregate,
                       {"tumbling": lambda: PeriodicWindows(100),
                        "session": lambda: SessionWindows(50)})
                   .collect())
        env.execute()
        by_query = {}
        for result in results.get():
            by_query.setdefault(result.query_id, []).append(result)
        assert len(by_query["tumbling"]) == 10
        assert len(by_query["session"]) == 1  # gaps of 10 never close it

    def test_shared_windows_counter_is_exposed(self):
        counter = AggregationCostCounter()
        data = [(("k", 1), ts) for ts in range(0, 500, 5)]
        env = Environment()
        (env.from_collection(data, timestamped=True)
         .key_by(lambda v: v[0])
         .shared_windows(CountAggregate,
                         {"a": lambda: PeriodicWindows(100, 50),
                          "b": lambda: PeriodicWindows(200, 100)},
                         counter=counter)
         .collect())
        env.execute()
        assert counter.lifts.value == len(data)  # one lift per record


class TestComposedAggregate:
    def test_multi_measure_results(self):
        aggregate = ComposedAggregate({"sum": SumAggregate(),
                                       "max": MaxAggregate(),
                                       "count": CountAggregate()})
        acc = aggregate.create_accumulator()
        for value in (3, 9, 1):
            acc = aggregate.add(value, acc)
        assert aggregate.get_result(acc) == {"sum": 13, "max": 9, "count": 3}

    def test_merge(self):
        aggregate = ComposedAggregate({"sum": SumAggregate(),
                                       "max": MaxAggregate()})
        left = aggregate.add(5, aggregate.create_accumulator())
        right = aggregate.add(7, aggregate.create_accumulator())
        assert aggregate.get_result(aggregate.merge(left, right)) == \
            {"sum": 12, "max": 7}

    def test_invertibility_is_conjunctive(self):
        assert ComposedAggregate({"s": SumAggregate(),
                                  "c": CountAggregate()}).invertible
        mixed = ComposedAggregate({"s": SumAggregate(),
                                   "m": MaxAggregate()})
        assert not mixed.invertible
        with pytest.raises(NotImplementedError):
            mixed.retract(1, mixed.create_accumulator())

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ComposedAggregate({})

    def test_one_lift_for_many_measures_through_cutty(self):
        counter = AggregationCostCounter()
        aggregate = ComposedAggregate({"sum": SumAggregate(),
                                       "max": MaxAggregate(),
                                       "count": CountAggregate()})
        aggregator = CuttyAggregator(aggregate, PeriodicWindows(100, 20),
                                     counter)
        stream = [(v, v * 2) for v in range(500)]
        results = []
        for value, ts in stream:
            results.extend(aggregator.insert(value, ts))
        results.extend(aggregator.flush())
        # One lift per record computes all three measures.
        assert counter.lifts.value == len(stream)
        assert all(set(result.value) == {"sum", "max", "count"}
                   for result in results)
        # Spot-check one window against brute force.
        window = next(r for r in results if r.start == 100)
        values = [v for v, ts in stream if 100 <= ts < 200]
        assert window.value == {"sum": sum(values), "max": max(values),
                                "count": len(values)}


class TestLateDataSideOutput:
    def test_late_records_emitted_with_tag(self):
        env = Environment()
        data = [("k", 10), ("k", 100), ("k", 5), ("k", 200)]  # 5 is late
        strategy = WatermarkStrategy.for_monotonic_timestamps(lambda v: v[1])
        results = (env.from_collection(data)
                   .assign_timestamps_and_watermarks(strategy)
                   .key_by(lambda v: v[0])
                   .window(TumblingEventTimeWindows.of(50))
                   .side_output_late_data("LATE")
                   .aggregate(CountAggregate())
                   .collect())
        env.execute()
        late = [value for value in results.get()
                if isinstance(value, tuple) and value[0] == "LATE"]
        windows = [value for value in results.get()
                   if not (isinstance(value, tuple) and value[0] == "LATE")]
        assert late == [("LATE", ("k", 5))]
        assert sum(w.value for w in windows) == 3  # on-time records only

    def test_no_tag_drops_silently(self):
        env = Environment()
        data = [("k", 10), ("k", 100), ("k", 5)]
        strategy = WatermarkStrategy.for_monotonic_timestamps(lambda v: v[1])
        results = (env.from_collection(data)
                   .assign_timestamps_and_watermarks(strategy)
                   .key_by(lambda v: v[0])
                   .window(TumblingEventTimeWindows.of(50))
                   .aggregate(CountAggregate())
                   .collect())
        env.execute()
        assert all(not isinstance(v, tuple) or v[0] != "LATE"
                   for v in results.get())

    def test_allowed_lateness_admits_stragglers(self):
        env = Environment()
        # Watermark reaches 100 after the second record; ts=5 is within
        # an allowed lateness of 200 -> window [0,50) refires updated.
        data = [("k", 10), ("k", 100), ("k", 5), ("k", 400)]
        strategy = WatermarkStrategy.for_monotonic_timestamps(lambda v: v[1])
        results = (env.from_collection(data)
                   .assign_timestamps_and_watermarks(strategy)
                   .key_by(lambda v: v[0])
                   .window(TumblingEventTimeWindows.of(50))
                   .allowed_lateness(200)
                   .aggregate(CountAggregate())
                   .collect())
        env.execute()
        first_window_counts = [r.value for r in results.get()
                               if r.window.start == 0]
        # Initial firing with 1 record, refined firing with 2.
        assert 2 in first_window_counts


class TestContinuousEventTimeTrigger:
    def _run(self, interval):
        from repro.windowing import (
            ContinuousEventTimeTrigger,
            CountAggregate,
            TumblingEventTimeWindows,
        )
        env = Environment()
        data = [("k", ts) for ts in range(0, 200, 10)]
        strategy = WatermarkStrategy.for_monotonic_timestamps(lambda v: v[1])
        results = (env.from_collection(data)
                   .assign_timestamps_and_watermarks(strategy)
                   .key_by(lambda v: v[0])
                   .window(TumblingEventTimeWindows.of(100))
                   .trigger(ContinuousEventTimeTrigger(interval))
                   .aggregate(CountAggregate())
                   .collect())
        env.execute()
        return results.get()

    def test_early_firings_refine_towards_final(self):
        results = self._run(interval=30)
        first_window = [r.value for r in results if r.window.start == 0]
        # Several firings, non-decreasing counts, final value correct.
        assert len(first_window) > 1
        assert first_window == sorted(first_window)
        assert first_window[-1] == 10

    def test_final_results_match_default_trigger(self):
        from repro.windowing import CountAggregate, TumblingEventTimeWindows
        results = self._run(interval=25)
        finals = {}
        for r in results:
            finals[r.window.start] = r.value  # last firing wins
        assert finals == {0: 10, 100: 10}

    def test_validation(self):
        from repro.windowing import ContinuousEventTimeTrigger
        with pytest.raises(ValueError):
            ContinuousEventTimeTrigger(0)
