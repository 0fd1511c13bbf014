"""Unit tests for the FlatFAT aggregate tree."""

import pytest

from repro.cutty.flatfat import FlatFAT
from repro.metrics import AggregationCostCounter
from repro.windowing.aggregates import (
    InstrumentedAggregate,
    MaxAggregate,
    SumAggregate,
)


class TestAppendQuery:
    def test_query_matches_python_sum(self):
        tree = FlatFAT(SumAggregate(), 4)
        values = [3, 1, 4, 1, 5, 9, 2, 6]
        for value in values:
            tree.append(value)
        for start in range(len(values)):
            for end in range(start, len(values) + 1):
                expected = sum(values[start:end]) if start < end else None
                assert tree.query(start, end) == expected

    def test_growth_preserves_contents(self):
        tree = FlatFAT(SumAggregate(), 2)
        for value in range(100):
            tree.append(value)
        assert tree.capacity >= 100
        assert tree.query(0, 100) == sum(range(100))
        assert tree.query(10, 20) == sum(range(10, 20))

    def test_append_returns_absolute_indices(self):
        tree = FlatFAT(SumAggregate(), 4)
        assert [tree.append(v) for v in (1, 2, 3)] == [0, 1, 2]

    def test_non_invertible_aggregate(self):
        tree = FlatFAT(MaxAggregate(), 4)
        for value in [5, 3, 9, 1]:
            tree.append(value)
        assert tree.query(0, 4) == 9
        assert tree.query(2, 4) == 9
        assert tree.query(3, 4) == 1


class TestEviction:
    def test_evicted_leaves_leave_the_aggregate(self):
        tree = FlatFAT(SumAggregate(), 4)
        for value in [10, 20, 30, 40]:
            tree.append(value)
        tree.evict_front(2)
        assert tree.size == 2
        assert tree.query_all() == 70
        assert tree.query(0, 4) == 70  # clamped to live range

    def test_ring_reuse_after_eviction(self):
        tree = FlatFAT(SumAggregate(), 4)
        for value in range(4):
            tree.append(value)
        tree.evict_front(2)
        tree.append(100)  # reuses a freed slot without growth
        tree.append(200)
        assert tree.capacity == 4
        assert tree.query_all() == 2 + 3 + 100 + 200

    def test_sliding_usage_pattern(self):
        # Continuous append+evict, like a sliding window of 8 slices.
        tree = FlatFAT(SumAggregate(), 4)
        for index in range(200):
            tree.append(index)
            if index >= 8:
                tree.evict_front(index - 7)
        assert tree.size == 8
        assert tree.query_all() == sum(range(192, 200))

    def test_evict_everything(self):
        tree = FlatFAT(SumAggregate(), 4)
        tree.append(1)
        tree.evict_front(1)
        assert tree.query_all() is None
        assert tree.size == 0


class TestBoundsAndErrors:
    def test_empty_range_is_none(self):
        tree = FlatFAT(SumAggregate(), 4)
        tree.append(1)
        assert tree.query(1, 1) is None
        assert tree.query(5, 9) is None

    def test_update_live_leaf(self):
        tree = FlatFAT(SumAggregate(), 4)
        tree.append(1)
        tree.append(2)
        tree.update(0, 10)
        assert tree.query_all() == 12
        assert tree.get(0) == 10

    def test_update_dead_leaf_raises(self):
        tree = FlatFAT(SumAggregate(), 4)
        tree.append(1)
        tree.evict_front(1)
        with pytest.raises(IndexError):
            tree.update(0, 5)
        with pytest.raises(IndexError):
            tree.get(0)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FlatFAT(SumAggregate(), 1)

    def test_wrap_around_query_order(self):
        """Ranges that wrap the physical ring combine left-to-right."""
        # Use a non-commutative "aggregate": string concatenation.
        class Concat(SumAggregate):
            def create_accumulator(self):
                return ""
        tree = FlatFAT(Concat(), 4)
        for ch in "abcd":
            tree.append(ch)
        tree.evict_front(2)      # live: c, d at slots 2, 3
        tree.append("e")         # slot 0
        tree.append("f")         # slot 1 -> range [2, 6) wraps
        assert tree.query(2, 6) == "cdef"


class TestStartingFront:
    """A tree rebuilt from a snapshot starts at the snapshot's absolute
    front instead of re-appending every leaf ever evicted."""

    def test_front_offsets_absolute_indices(self):
        tree = FlatFAT(SumAggregate(), 4, front=39_998)
        assert (tree.front_index, tree.back_index, tree.size) == (
            39_998, 39_998, 0)
        assert [tree.append(v) for v in (7, 8)] == [39_998, 39_999]
        assert tree.capacity == 4
        assert tree.query(0, 10**6) == 15
        assert tree.query(39_999, 40_000) == 8
        with pytest.raises(IndexError):
            tree.get(39_997)

    def test_same_capacity_and_front_lay_out_the_same_tree(self):
        # Leaf slots are index % capacity: a tree restarted at the
        # original's front and capacity spends the same combines.
        counter = AggregationCostCounter()
        original = FlatFAT(InstrumentedAggregate(SumAggregate(), counter), 4)
        for value in range(11):
            original.append(value)
        original.evict_front(6)
        leaves = original.leaves()
        assert leaves == [6, 7, 8, 9, 10]

        rebuilt_counter = AggregationCostCounter()
        rebuilt = FlatFAT(
            InstrumentedAggregate(SumAggregate(), rebuilt_counter),
            original.capacity, front=original.front_index)
        for leaf in leaves:
            rebuilt.append(leaf)
        assert rebuilt.leaves() == leaves
        for tree, cost in ((original, counter), (rebuilt, rebuilt_counter)):
            cost.reset()
            assert tree.query(7, 11) == 7 + 8 + 9 + 10
        assert counter.combines.value == rebuilt_counter.combines.value

    def test_leaves_unrolls_the_ring(self):
        tree = FlatFAT(SumAggregate(), 4)
        assert tree.leaves() == []
        for value in "abcd":
            tree.append(value)
        assert tree.leaves() == list("abcd")
        tree.evict_front(3)
        tree.append("e")
        tree.append("f")            # live d, e, f at slots 3, 0, 1
        assert tree.leaves() == list("def")
        assert tree.leaves() is not tree.leaves()
