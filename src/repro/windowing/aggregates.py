"""Aggregate functions in lift / combine / lower form.

This is the algebraic interface the whole windowing stack -- the standard
operator, Cutty, and every baseline -- computes over:

* ``lift`` (``create_accumulator`` + ``add``): raw value -> partial,
* ``combine`` (``merge``): partial x partial -> partial,
* ``lower`` (``get_result``): partial -> final value.

The distinction between *invertible* aggregates (sum, count: subtraction
exists) and *non-invertible* ones (min, max: no inverse) matters for the
baselines -- e.g. subtract-on-evict tricks only work for the former --
and is flagged via :attr:`AggregateFunction.invertible`.

Every function optionally reports through an
:class:`~repro.observability.AggregationCostCounter`, making the E1-E4 cost
comparisons uniform across strategies.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Tuple

from repro.observability import AggregationCostCounter


class AggregateFunction:
    """Flink-style incremental aggregate: accumulator in, result out."""

    #: Whether a ``retract`` (inverse of add) exists.
    invertible = False
    #: Whether combine is commutative (all of ours are associative).
    commutative = True

    def create_accumulator(self) -> Any:
        raise NotImplementedError

    def add(self, value: Any, accumulator: Any) -> Any:
        raise NotImplementedError

    def merge(self, acc1: Any, acc2: Any) -> Any:
        raise NotImplementedError

    def get_result(self, accumulator: Any) -> Any:
        raise NotImplementedError

    def retract(self, value: Any, accumulator: Any) -> Any:
        raise NotImplementedError("%s is not invertible" % type(self).__name__)


class InstrumentedAggregate(AggregateFunction):
    """Wraps an aggregate, counting lift/combine/lower invocations.

    ``add`` counts as a *lift* (value enters the aggregation) and
    ``merge`` as a *combine*; ``get_result`` is a *lower*.  This matches
    the per-record cost accounting of the Cutty evaluation.
    """

    def __init__(self, inner: AggregateFunction,
                 counter: Optional[AggregationCostCounter] = None) -> None:
        self.inner = inner
        self.counter = counter or AggregationCostCounter()
        self.invertible = inner.invertible
        self.commutative = inner.commutative

    def create_accumulator(self) -> Any:
        return self.inner.create_accumulator()

    def add(self, value: Any, accumulator: Any) -> Any:
        self.counter.lifts.inc()
        return self.inner.add(value, accumulator)

    def merge(self, acc1: Any, acc2: Any) -> Any:
        self.counter.combines.inc()
        return self.inner.merge(acc1, acc2)

    def get_result(self, accumulator: Any) -> Any:
        self.counter.lowers.inc()
        return self.inner.get_result(accumulator)

    def retract(self, value: Any, accumulator: Any) -> Any:
        self.counter.combines.inc()
        return self.inner.retract(value, accumulator)


class SumAggregate(AggregateFunction):
    """Numeric sum; invertible."""

    invertible = True

    def create_accumulator(self) -> float:
        return 0

    def add(self, value: Any, accumulator: Any) -> Any:
        return accumulator + value

    def merge(self, acc1: Any, acc2: Any) -> Any:
        return acc1 + acc2

    def get_result(self, accumulator: Any) -> Any:
        return accumulator

    def retract(self, value: Any, accumulator: Any) -> Any:
        return accumulator - value


class CountAggregate(AggregateFunction):
    """Cardinality; invertible."""

    invertible = True

    def create_accumulator(self) -> int:
        return 0

    def add(self, value: Any, accumulator: int) -> int:
        return accumulator + 1

    def merge(self, acc1: int, acc2: int) -> int:
        return acc1 + acc2

    def get_result(self, accumulator: int) -> int:
        return accumulator

    def retract(self, value: Any, accumulator: int) -> int:
        return accumulator - 1


class MinAggregate(AggregateFunction):
    """Minimum; NOT invertible (removing the min needs the full history)."""

    def create_accumulator(self) -> float:
        return math.inf

    def add(self, value: Any, accumulator: Any) -> Any:
        return value if value < accumulator else accumulator

    def merge(self, acc1: Any, acc2: Any) -> Any:
        return acc1 if acc1 < acc2 else acc2

    def get_result(self, accumulator: Any) -> Any:
        return None if accumulator is math.inf else accumulator


class MaxAggregate(AggregateFunction):
    """Maximum; NOT invertible."""

    def create_accumulator(self) -> float:
        return -math.inf

    def add(self, value: Any, accumulator: Any) -> Any:
        return value if value > accumulator else accumulator

    def merge(self, acc1: Any, acc2: Any) -> Any:
        return acc1 if acc1 > acc2 else acc2

    def get_result(self, accumulator: Any) -> Any:
        return None if accumulator is -math.inf else accumulator


class AvgAggregate(AggregateFunction):
    """Arithmetic mean via a (sum, count) accumulator; invertible."""

    invertible = True

    def create_accumulator(self) -> Tuple[float, int]:
        return (0.0, 0)

    def add(self, value: Any, accumulator: Tuple[float, int]) -> Tuple[float, int]:
        return (accumulator[0] + value, accumulator[1] + 1)

    def merge(self, acc1: Tuple[float, int],
              acc2: Tuple[float, int]) -> Tuple[float, int]:
        return (acc1[0] + acc2[0], acc1[1] + acc2[1])

    def get_result(self, accumulator: Tuple[float, int]) -> Optional[float]:
        total, count = accumulator
        return total / count if count else None

    def retract(self, value: Any,
                accumulator: Tuple[float, int]) -> Tuple[float, int]:
        return (accumulator[0] - value, accumulator[1] - 1)


class MinMaxSumCountAggregate(AggregateFunction):
    """The composite (min, max, sum, count) aggregate used by dashboard
    queries and by the I2 stack's per-slice statistics."""

    def create_accumulator(self) -> Tuple[float, float, float, int]:
        return (math.inf, -math.inf, 0.0, 0)

    def add(self, value: Any, acc: Tuple[float, float, float, int]):
        lo, hi, total, count = acc
        return (min(lo, value), max(hi, value), total + value, count + 1)

    def merge(self, acc1, acc2):
        return (min(acc1[0], acc2[0]), max(acc1[1], acc2[1]),
                acc1[2] + acc2[2], acc1[3] + acc2[3])

    def get_result(self, acc):
        lo, hi, total, count = acc
        if count == 0:
            return None
        return {"min": lo, "max": hi, "sum": total, "count": count,
                "avg": total / count}


class ComposedAggregate(AggregateFunction):
    """Several named aggregates over one pass -- multi-measure sharing.

    With Cutty this means *one* lift per record computes, say, sum, max
    and count simultaneously: the accumulator is a tuple of the member
    accumulators and the result a ``{name: value}`` dict.  Invertible
    only when every member is.
    """

    def __init__(self, members: "Dict[str, AggregateFunction]") -> None:
        if not members:
            raise ValueError("at least one member aggregate is required")
        self._names = list(members)
        self._members = [members[name] for name in self._names]
        self.invertible = all(member.invertible for member in self._members)
        self.commutative = all(member.commutative
                               for member in self._members)

    def create_accumulator(self) -> Tuple[Any, ...]:
        return tuple(member.create_accumulator()
                     for member in self._members)

    def add(self, value: Any, accumulator: Tuple[Any, ...]) -> Tuple[Any, ...]:
        return tuple(member.add(value, acc)
                     for member, acc in zip(self._members, accumulator))

    def merge(self, acc1: Tuple[Any, ...],
              acc2: Tuple[Any, ...]) -> Tuple[Any, ...]:
        return tuple(member.merge(a, b)
                     for member, a, b in zip(self._members, acc1, acc2))

    def get_result(self, accumulator: Tuple[Any, ...]) -> "Dict[str, Any]":
        return {name: member.get_result(acc)
                for name, member, acc in zip(self._names, self._members,
                                             accumulator)}

    def retract(self, value: Any,
                accumulator: Tuple[Any, ...]) -> Tuple[Any, ...]:
        if not self.invertible:
            raise NotImplementedError(
                "ComposedAggregate with non-invertible members")
        return tuple(member.retract(value, acc)
                     for member, acc in zip(self._members, accumulator))


class ReduceAggregate(AggregateFunction):
    """Adapts a binary reduce function into the aggregate interface.

    Invertibility is unknown for arbitrary reduce functions, so it is
    conservatively ``False``.
    """

    def __init__(self, reduce_fn) -> None:
        self._fn = reduce_fn

    _EMPTY = object()

    def create_accumulator(self) -> Any:
        return self._EMPTY

    def add(self, value: Any, accumulator: Any) -> Any:
        if accumulator is self._EMPTY:
            return value
        return self._fn(accumulator, value)

    def merge(self, acc1: Any, acc2: Any) -> Any:
        if acc1 is self._EMPTY:
            return acc2
        if acc2 is self._EMPTY:
            return acc1
        return self._fn(acc1, acc2)

    def get_result(self, accumulator: Any) -> Any:
        return None if accumulator is self._EMPTY else accumulator
