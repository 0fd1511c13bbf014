"""Tests for the stream-stream window join and HyperLogLog."""

import random

import pytest

from repro.api import Environment
from repro.ml.hll import HyperLogLog
from repro.windowing import TumblingEventTimeWindows
from repro.windowing.join import WindowJoinOperator
from repro.windowing.assigners import (
    EventTimeSessionWindows,
    GlobalWindows,
)


class TestWindowJoin:
    def test_joins_within_window_and_key(self):
        env = Environment()
        impressions = env.from_collection(
            [(("u1", "adA"), 10), (("u2", "adB"), 20), (("u1", "adC"), 120)],
            timestamped=True)
        clicks = env.from_collection(
            [(("u1", "click1"), 50), (("u1", "click2"), 130),
             (("u3", "clickX"), 40)],
            timestamped=True)
        result = impressions.window_join(
            clicks,
            left_key=lambda v: v[0],
            right_key=lambda v: v[0],
            assigner=TumblingEventTimeWindows.of(100),
            join_fn=lambda imp, click: (imp[0], imp[1], click[1])).collect()
        env.execute()
        # Window [0,100): u1 impression adA joins click1; u2/u3 unmatched.
        # Window [100,200): u1 adC joins click2.
        assert sorted(result.get()) == [("u1", "adA", "click1"),
                                        ("u1", "adC", "click2")]

    def test_cross_product_within_window(self):
        env = Environment()
        left = env.from_collection([(("k", "l%d" % i), i) for i in range(2)],
                                   timestamped=True)
        right = env.from_collection([(("k", "r%d" % i), i) for i in range(3)],
                                    timestamped=True)
        result = left.window_join(
            right, lambda v: v[0], lambda v: v[0],
            TumblingEventTimeWindows.of(100)).collect()
        env.execute()
        assert len(result.get()) == 2 * 3

    def test_state_cleared_after_firing(self):
        env = Environment()
        left = env.from_collection([(("k", i), i * 10) for i in range(20)],
                                   timestamped=True)
        right = env.from_collection([(("k", -i), i * 10) for i in range(20)],
                                    timestamped=True)
        result = left.window_join(
            right, lambda v: v[0], lambda v: v[0],
            TumblingEventTimeWindows.of(50)).collect()
        env.execute()
        engine = env.last_engine
        join_tasks = [task for task in engine.tasks
                      if "window-join" in task.vertex_name]
        leftovers = sum(
            len(per_key)
            for task in join_tasks
            for chained in task.chain
            for state_name in ("join-left", "join-right")
            for per_key in chained.backend.table(state_name).values())
        assert leftovers == 0
        # 4 windows x 5 left x 5 right each.
        assert len(result.get()) == 4 * 25

    def test_rejects_merging_and_processing_time_windows(self):
        with pytest.raises(ValueError):
            WindowJoinOperator(EventTimeSessionWindows.with_gap(10))
        with pytest.raises(ValueError):
            WindowJoinOperator(GlobalWindows.create())


class TestHyperLogLog:
    def test_estimate_within_error_bound(self):
        hll = HyperLogLog(precision=12)
        true_cardinality = 50_000
        for index in range(true_cardinality):
            hll.add("item-%d" % index)
        estimate = hll.estimate()
        tolerance = 4 * hll.standard_error * true_cardinality
        assert abs(estimate - true_cardinality) < tolerance

    def test_duplicates_do_not_inflate(self):
        hll = HyperLogLog(precision=12)
        for _ in range(10):
            for index in range(1000):
                hll.add(index)
        assert abs(hll.estimate() - 1000) < 1000 * 0.1

    def test_small_cardinalities_use_linear_counting(self):
        hll = HyperLogLog(precision=12)
        for index in range(10):
            hll.add(index)
        assert abs(hll.estimate() - 10) < 2

    def test_merge_equals_union(self):
        a, b = HyperLogLog(10), HyperLogLog(10)
        for index in range(5000):
            (a if index % 2 else b).add(index)
        merged = a.merge(b)
        assert abs(merged.estimate() - 5000) < 5000 * 0.15

    def test_merge_precision_mismatch(self):
        with pytest.raises(ValueError):
            HyperLogLog(10).merge(HyperLogLog(12))

    def test_precision_validation(self):
        with pytest.raises(ValueError):
            HyperLogLog(precision=2)

    def test_empty_estimate_is_zero(self):
        assert HyperLogLog().estimate() == 0
