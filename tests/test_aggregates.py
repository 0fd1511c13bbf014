"""Unit tests for aggregate functions (lift/combine/lower algebra)."""

import math

import pytest

from repro.observability import AggregationCostCounter
from repro.windowing.aggregates import (
    AvgAggregate,
    CountAggregate,
    InstrumentedAggregate,
    MaxAggregate,
    MinAggregate,
    MinMaxSumCountAggregate,
    ReduceAggregate,
    SumAggregate,
)


def fold(aggregate, values):
    acc = aggregate.create_accumulator()
    for value in values:
        acc = aggregate.add(value, acc)
    return acc


class TestSum:
    def test_fold_and_result(self):
        aggregate = SumAggregate()
        assert aggregate.get_result(fold(aggregate, [1, 2, 3])) == 6

    def test_merge_equals_concatenated_fold(self):
        aggregate = SumAggregate()
        left = fold(aggregate, [1, 2])
        right = fold(aggregate, [3, 4])
        assert aggregate.merge(left, right) == fold(aggregate, [1, 2, 3, 4])

    def test_retract_inverts_add(self):
        aggregate = SumAggregate()
        acc = fold(aggregate, [1, 2, 3])
        assert aggregate.retract(2, acc) == 4
        assert aggregate.invertible


class TestCount:
    def test_counts_elements_not_values(self):
        aggregate = CountAggregate()
        assert aggregate.get_result(fold(aggregate, ["a", "b", "c"])) == 3

    def test_retract(self):
        aggregate = CountAggregate()
        assert aggregate.retract("x", 5) == 4


class TestMinMax:
    def test_min(self):
        aggregate = MinAggregate()
        assert aggregate.get_result(fold(aggregate, [5, 3, 9])) == 3

    def test_max(self):
        aggregate = MaxAggregate()
        assert aggregate.get_result(fold(aggregate, [5, 3, 9])) == 9

    def test_not_invertible(self):
        assert not MinAggregate().invertible
        with pytest.raises(NotImplementedError):
            MaxAggregate().retract(1, 2)

    def test_empty_returns_none(self):
        aggregate = MinAggregate()
        assert aggregate.get_result(aggregate.create_accumulator()) is None

    def test_merge(self):
        aggregate = MaxAggregate()
        assert aggregate.merge(3, 7) == 7


class TestAvg:
    def test_mean(self):
        aggregate = AvgAggregate()
        assert aggregate.get_result(fold(aggregate, [1, 2, 3, 4])) == 2.5

    def test_merge_weighted(self):
        aggregate = AvgAggregate()
        left = fold(aggregate, [0, 0, 0])
        right = fold(aggregate, [6])
        assert aggregate.get_result(aggregate.merge(left, right)) == 1.5

    def test_empty_is_none(self):
        aggregate = AvgAggregate()
        assert aggregate.get_result(aggregate.create_accumulator()) is None


class TestMinMaxSumCount:
    def test_composite(self):
        aggregate = MinMaxSumCountAggregate()
        result = aggregate.get_result(fold(aggregate, [2, 8, 5]))
        assert result == {"min": 2, "max": 8, "sum": 15, "count": 3,
                          "avg": 5.0}

    def test_merge(self):
        aggregate = MinMaxSumCountAggregate()
        merged = aggregate.merge(fold(aggregate, [1, 2]),
                                 fold(aggregate, [10]))
        assert aggregate.get_result(merged)["max"] == 10

    def test_empty_is_none(self):
        aggregate = MinMaxSumCountAggregate()
        assert aggregate.get_result(aggregate.create_accumulator()) is None


class TestReduceAdapter:
    def test_wraps_binary_function(self):
        aggregate = ReduceAggregate(lambda a, b: a + b)
        assert aggregate.get_result(fold(aggregate, [1, 2, 3])) == 6

    def test_merge_handles_empty_sides(self):
        aggregate = ReduceAggregate(max)
        empty = aggregate.create_accumulator()
        assert aggregate.merge(empty, 5) == 5
        assert aggregate.merge(5, empty) == 5

    def test_empty_result_is_none(self):
        aggregate = ReduceAggregate(max)
        assert aggregate.get_result(aggregate.create_accumulator()) is None


class TestInstrumented:
    def test_counts_primitive_operations(self):
        costs = AggregationCostCounter()
        aggregate = InstrumentedAggregate(SumAggregate(), costs)
        acc = fold(aggregate, [1, 2, 3])        # 3 lifts
        acc = aggregate.merge(acc, fold(aggregate, [4]))  # +1 lift, 1 combine
        aggregate.get_result(acc)               # 1 lower
        assert costs.lifts.value == 4
        assert costs.combines.value == 1
        assert costs.lowers.value == 1

    def test_preserves_semantics_and_flags(self):
        aggregate = InstrumentedAggregate(SumAggregate())
        assert aggregate.get_result(fold(aggregate, [1, 2])) == 3
        assert aggregate.invertible
        assert aggregate.retract(1, 5) == 4
