"""FlatFAT: a flat (array-backed) fixed-size aggregate tree.

The shared data structure at the heart of Cutty's aggregate sharing: a
complete binary tree whose leaves hold partial aggregates (one per
stream slice, or one per record for the B-Int baseline) and whose inner
nodes hold the ``combine`` of their children.

Costs, in ``combine`` invocations of the underlying aggregate:

* ``append`` (new leaf)            -- O(log capacity) parent updates,
* ``query`` (range combine)        -- O(log capacity),
* ``evict_front``                  -- O(k log capacity) for k leaves,
* growth (capacity doubling)       -- O(n), amortised O(1) per append.

Leaves are addressed by *absolute index* (0, 1, 2, ... over the stream's
lifetime); a ring mapping onto physical leaf slots lets the window of
live leaves slide forward without re-indexing.  Aggregates are assumed
associative; commutativity is NOT required -- range queries combine
strictly left-to-right.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.windowing.aggregates import AggregateFunction


class FlatFAT:
    """Aggregate tree over a sliding range of absolute leaf indices."""

    def __init__(self, aggregate: AggregateFunction,
                 initial_capacity: int = 8, front: int = 0) -> None:
        if initial_capacity < 2:
            raise ValueError("capacity must be at least 2")
        capacity = 1
        while capacity < initial_capacity:
            capacity *= 2
        self._aggregate = aggregate
        self._capacity = capacity
        # tree[1] is the root; leaves occupy tree[capacity : 2 * capacity].
        self._tree: List[Optional[Any]] = [None] * (2 * capacity)
        # A tree rebuilt from a snapshot starts where the snapshotted one
        # stood: absolute indices below ``front`` were evicted long ago.
        self._front = front  # absolute index of the oldest live leaf
        self._back = front   # absolute index one past the newest live leaf

    # -- introspection ------------------------------------------------------

    @property
    def size(self) -> int:
        return self._back - self._front

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def front_index(self) -> int:
        return self._front

    @property
    def back_index(self) -> int:
        return self._back

    def __len__(self) -> int:
        return self.size

    # -- internals -----------------------------------------------------------

    def _slot(self, absolute_index: int) -> int:
        return self._capacity + absolute_index % self._capacity

    def _combine(self, left: Optional[Any], right: Optional[Any]) -> Any:
        if left is None:
            return right
        if right is None:
            return left
        return self._aggregate.merge(left, right)

    def _update_path(self, slot: int) -> None:
        tree = self._tree
        combine = self._combine
        node = slot // 2
        while node >= 1:
            tree[node] = combine(tree[2 * node], tree[2 * node + 1])
            node //= 2

    def _grow(self) -> None:
        live = [(index, self._tree[self._slot(index)])
                for index in range(self._front, self._back)]
        self._capacity *= 2
        self._tree = [None] * (2 * self._capacity)
        for index, value in live:
            self._tree[self._slot(index)] = value
        # Rebuild inner nodes bottom-up; costs O(n) combines, amortised
        # O(1) per append by the doubling argument.
        for node in range(self._capacity - 1, 0, -1):
            self._tree[node] = self._combine(self._tree[2 * node],
                                             self._tree[2 * node + 1])

    # -- mutation -----------------------------------------------------------------

    def append(self, partial: Any) -> int:
        """Add a leaf after the newest one; returns its absolute index."""
        if self.size >= self._capacity:
            self._grow()
        index = self._back
        self._back += 1
        slot = self._slot(index)
        self._tree[slot] = partial
        self._update_path(slot)
        return index

    def update(self, absolute_index: int, partial: Any) -> None:
        """Replace the partial at a live leaf."""
        if not self._front <= absolute_index < self._back:
            raise IndexError("leaf %d not live (front=%d, back=%d)"
                             % (absolute_index, self._front, self._back))
        slot = self._slot(absolute_index)
        self._tree[slot] = partial
        self._update_path(slot)

    def get(self, absolute_index: int) -> Any:
        if not self._front <= absolute_index < self._back:
            raise IndexError("leaf %d not live (front=%d, back=%d)"
                             % (absolute_index, self._front, self._back))
        return self._tree[self._slot(absolute_index)]

    def leaves(self) -> List[Any]:
        """The live leaves, oldest first (the ring unrolled)."""
        first = self._slot(self._front)
        last = first + self.size
        wrapped = last - 2 * self._capacity
        if wrapped <= 0:
            return self._tree[first:last]
        return (self._tree[first:]
                + self._tree[self._capacity:self._capacity + wrapped])

    def evict_front(self, new_front: int) -> None:
        """Drop all leaves with absolute index < ``new_front``."""
        if new_front <= self._front:
            return
        if new_front > self._back:
            new_front = self._back
        for index in range(self._front, new_front):
            slot = self._slot(index)
            self._tree[slot] = None
            self._update_path(slot)
        self._front = new_front

    # -- queries ----------------------------------------------------------------------

    def query(self, start: int, end: int) -> Optional[Any]:
        """Combine of leaves with absolute index in ``[start, end)``,
        strictly left-to-right; ``None`` if the range holds no partials."""
        start = max(start, self._front)
        end = min(end, self._back)
        if start >= end:
            return None
        # The live window never exceeds capacity, but [start, end) may wrap
        # the ring: split into at most two physically-contiguous segments.
        first_slot = start % self._capacity
        last_slot = (end - 1) % self._capacity
        if first_slot <= last_slot:
            return self._query_slots(first_slot, last_slot)
        left = self._query_slots(first_slot, self._capacity - 1)
        right = self._query_slots(0, last_slot)
        return self._combine(left, right)

    def _query_slots(self, lo: int, hi: int) -> Optional[Any]:
        """Standard iterative segment-tree range combine over physical
        leaf positions ``[lo, hi]``, left-to-right."""
        tree = self._tree
        combine = self._combine
        left_acc: Optional[Any] = None
        right_acc: Optional[Any] = None
        left = self._capacity + lo
        right = self._capacity + hi + 1
        while left < right:
            if left & 1:
                left_acc = combine(left_acc, tree[left])
                left += 1
            if right & 1:
                right -= 1
                right_acc = combine(tree[right], right_acc)
            left //= 2
            right //= 2
        return combine(left_acc, right_acc)

    def query_all(self) -> Optional[Any]:
        return self.query(self._front, self._back)
