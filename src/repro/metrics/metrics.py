"""Metric primitives shared by the engine, the windowing strategies and the
benchmark harness.

The STREAMLINE evaluation (via the Cutty and I2 papers it incorporates)
compares algorithms on *logical* cost metrics -- aggregate invocations per
record, partial aggregates kept alive, tuples transferred to a client --
in addition to wall-clock throughput.  Centralising those counters here
guarantees that every strategy in :mod:`repro.cutty` and :mod:`repro.i2`
is instrumented identically, so benchmark comparisons measure the
algorithms and not their bookkeeping.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional


class Counter:
    """A monotonically increasing count of discrete events."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("Counter can only increase; got %r" % amount)
        self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def reset(self) -> None:
        self._value = 0

    def __repr__(self) -> str:
        return "Counter(%s=%d)" % (self.name, self._value)


class Gauge:
    """A point-in-time value that can move in both directions.

    Also tracks the high-water mark, which is what memory experiments
    (E4) report.
    """

    __slots__ = ("name", "_value", "_max")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._max = 0

    def set(self, value: int) -> None:
        self._value = value
        if value > self._max:
            self._max = value

    def inc(self, amount: int = 1) -> None:
        self.set(self._value + amount)

    def dec(self, amount: int = 1) -> None:
        self.set(self._value - amount)

    @property
    def value(self) -> int:
        return self._value

    @property
    def max_value(self) -> int:
        return self._max

    def reset(self) -> None:
        self._value = 0
        self._max = 0

    def __repr__(self) -> str:
        return "Gauge(%s=%d, max=%d)" % (self.name, self._value, self._max)


class Histogram:
    """A fixed-memory histogram of observed values.

    Keeps every observation if there are few, otherwise a reservoir --
    adequate for latency distributions in a simulated engine where we
    care about median/p95/p99 shape rather than streaming efficiency.
    """

    def __init__(self, name: str, reservoir_size: int = 4096, seed: int = 17) -> None:
        if reservoir_size <= 0:
            raise ValueError("reservoir_size must be positive")
        self.name = name
        self._reservoir_size = reservoir_size
        self._values: List[float] = []
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        # Deterministic LCG so tests are reproducible without global random state.
        self._rng_state = seed

    def _next_rand(self, bound: int) -> int:
        # Numerical Recipes LCG; plenty for reservoir sampling.
        self._rng_state = (self._rng_state * 1664525 + 1013904223) % (2**32)
        return self._rng_state % bound

    def observe(self, value: float) -> None:
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if len(self._values) < self._reservoir_size:
            self._values.append(value)
        else:
            slot = self._next_rand(self._count)
            if slot < self._reservoir_size:
                self._values[slot] = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Return the ``q``-quantile (0 <= q <= 1) of the sampled values."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]; got %r" % q)
        if not self._values:
            return 0.0
        ordered = sorted(self._values)
        index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
        return ordered[index]

    def reset(self) -> None:
        self._values.clear()
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def __repr__(self) -> str:
        return "Histogram(%s, n=%d, mean=%.3f)" % (self.name, self._count, self.mean)


class MetricGroup:
    """A named registry of metrics, nested by dotted scopes.

    Each runtime task owns a group scoped ``job.operator.subtask``; the
    engine aggregates them for reporting.
    """

    def __init__(self, scope: str = "") -> None:
        self.scope = scope
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _qualify(self, name: str) -> str:
        return "%s.%s" % (self.scope, name) if self.scope else name

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(self._qualify(name))
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            self._gauges[name] = Gauge(self._qualify(name))
        return self._gauges[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram(self._qualify(name))
        return self._histograms[name]

    def counters(self) -> Dict[str, int]:
        return {name: c.value for name, c in self._counters.items()}

    def gauges(self) -> Dict[str, int]:
        return {name: g.value for name, g in self._gauges.items()}

    def reset(self) -> None:
        for metric in self._counters.values():
            metric.reset()
        for gauge in self._gauges.values():
            gauge.reset()
        for histogram in self._histograms.values():
            histogram.reset()


class AggregationCostCounter:
    """The instrument behind experiments E1-E4.

    Window-aggregation strategies are compared in the Cutty evaluation by
    how many invocations of the aggregate's primitive operations they
    spend per input record:

    * ``lift``    -- turn a raw record into a partial aggregate,
    * ``combine`` -- merge two partial aggregates,
    * ``lower``   -- turn a partial aggregate into a final result,

    plus how many partial aggregates they keep alive (``live_partials``,
    the memory metric).  Every strategy in :mod:`repro.cutty` receives one
    of these and reports through it, so the comparison is apples to
    apples.
    """

    __slots__ = ("lifts", "combines", "lowers", "records", "results", "partials")

    def __init__(self) -> None:
        self.lifts = Counter("lift")
        self.combines = Counter("combine")
        self.lowers = Counter("lower")
        self.records = Counter("records")
        self.results = Counter("results")
        self.partials = Gauge("live_partials")

    @property
    def total_operations(self) -> int:
        return self.lifts.value + self.combines.value + self.lowers.value

    def operations_per_record(self) -> float:
        """The headline metric of E1/E2: aggregate calls per input record."""
        if self.records.value == 0:
            return 0.0
        return self.total_operations / self.records.value

    @property
    def max_live_partials(self) -> int:
        return self.partials.max_value

    def reset(self) -> None:
        for metric in (self.lifts, self.combines, self.lowers,
                       self.records, self.results):
            metric.reset()
        self.partials.reset()

    def snapshot(self) -> Dict[str, float]:
        return {
            "records": self.records.value,
            "results": self.results.value,
            "lift": self.lifts.value,
            "combine": self.combines.value,
            "lower": self.lowers.value,
            "total_ops": self.total_operations,
            "ops_per_record": self.operations_per_record(),
            "max_live_partials": self.max_live_partials,
        }

    def __repr__(self) -> str:
        return ("AggregationCostCounter(records=%d, ops/rec=%.3f, "
                "max_partials=%d)" % (self.records.value,
                                      self.operations_per_record(),
                                      self.max_live_partials))


class OperatorStats:
    """Per-operator throughput profile for ``operator_profiling`` runs.

    ``time_ns`` is *inclusive* of downstream chained operators: the
    chain dispatches synchronously, so the head operator's time contains
    everything it triggered.  Sort by it to find the hot operator, but
    do not sum across a chain.
    """

    __slots__ = ("name", "records_in", "records_out", "batches", "time_ns",
                 "columnar_fallbacks")

    def __init__(self, name: str) -> None:
        self.name = name
        self.records_in = 0
        self.records_out = 0
        self.batches = 0
        self.time_ns = 0
        #: Columnar batches that arrived but fell back to the row path
        #: (unsupported UDF in the chain head, second input, quarantine
        #: or chaos bookkeeping) -- the observable cost of a missing
        #: column kernel.
        self.columnar_fallbacks = 0

    def merge(self, other: "OperatorStats") -> None:
        """Fold another subtask's stats for the same operator into this
        one (job-level aggregation across parallel instances)."""
        self.records_in += other.records_in
        self.records_out += other.records_out
        self.batches += other.batches
        self.time_ns += other.time_ns
        self.columnar_fallbacks += other.columnar_fallbacks

    def as_dict(self) -> Dict[str, float]:
        return {
            "name": self.name,
            "records_in": self.records_in,
            "records_out": self.records_out,
            "batches": self.batches,
            "time_ns": self.time_ns,
            "columnar_fallbacks": self.columnar_fallbacks,
        }

    def __repr__(self) -> str:
        return ("OperatorStats(%s, in=%d, out=%d, batches=%d, ms=%.3f)"
                % (self.name, self.records_in, self.records_out,
                   self.batches, self.time_ns / 1e6))


class ThroughputTracker:
    """Tracks records processed against a (simulated or wall) clock."""

    def __init__(self, name: str = "throughput") -> None:
        self.name = name
        self._records = 0
        self._start: Optional[float] = None
        self._end: Optional[float] = None

    def start(self, now: float) -> None:
        self._start = now

    def record(self, count: int = 1) -> None:
        self._records += count

    def stop(self, now: float) -> None:
        self._end = now

    @property
    def records(self) -> int:
        return self._records

    def records_per_second(self) -> float:
        if self._start is None or self._end is None or self._end <= self._start:
            return 0.0
        return self._records / (self._end - self._start)


def sum_nested(trees: Iterable[Dict[Any, Any]]) -> Dict[Any, Any]:
    """Sum dict trees leaf by leaf: nested dicts merge recursively,
    numbers under the same path add.  The inputs are not aliased."""
    merged: Dict[Any, Any] = {}
    for tree in trees:
        for key, value in tree.items():
            if isinstance(value, dict):
                merged[key] = sum_nested((merged.get(key, {}), value))
            else:
                merged[key] = merged.get(key, 0) + value
    return merged


#: Sum per-task counter dictionaries into one job-level view.
merge_counter_maps = sum_nested


def merge_gauge_maps(maps: Iterable[Dict[str, int]]) -> Dict[str, int]:
    """Union per-task gauge dictionaries into one job-level view.

    Gauges carry point-in-time values, so unlike counters they cannot be
    summed; on a name collision across tasks the last map wins.
    """
    merged: Dict[str, int] = {}
    for gauge_map in maps:
        merged.update(gauge_map)
    return merged
