"""Metric primitives and the registry that federates them.

The STREAMLINE evaluation (via the Cutty and I2 papers it incorporates)
compares algorithms on *logical* cost metrics -- aggregate invocations per
record, partial aggregates kept alive, tuples transferred to a client --
in addition to wall-clock throughput.  Every strategy in
:mod:`repro.cutty` and its baselines counts them through one
:class:`AggregationCostCounter`, so benchmark comparisons measure the
algorithms and not their bookkeeping.  Each runtime task counts into a
:class:`MetricGroup` of :class:`Counter` and :class:`Gauge` instruments.

:class:`MetricsRegistry` federates every metric producer of a running
job behind one snapshot:

* per-task :class:`MetricGroup` counters and gauges, and Cutty
  :class:`AggregationCostCounter` tables;
* runtime metrics registered by the engine's observability layer
  (queue occupancy, backpressure-stall time, watermark lag);
* pull-based *probes* -- callables evaluated at snapshot time, which is
  how stats that live inside operators (Cutty sharing counters, slices
  alive) surface without the operator ever pushing.

Groups are registered through *providers* (callables returning the live
groups), not direct references: a supervised restart-from-scratch
rebuilds every task and its metric group, and the registry must follow
the live set rather than keep counting into orphans.

Importing this module does not import the engine.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Tuple


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


class MetricGroup:
    """A named registry of metrics, nested by dotted scopes.

    Each runtime task owns a group scoped ``job.operator.subtask``; the
    engine aggregates them for reporting.
    """

    def __init__(self, scope: str = "") -> None:
        self.scope = scope
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}

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

    def counters(self) -> Dict[str, int]:
        return {name: c.value for name, c in self._counters.items()}

    def gauges(self) -> Dict[str, int]:
        return {name: g.value for name, g in self._gauges.items()}


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


def merge_gauge_maps(maps: Iterable[Dict[str, int]]) -> Dict[str, int]:
    """Union per-task gauge dictionaries into one job-level view.

    Gauges carry point-in-time values, so unlike counters they cannot be
    summed; on a name collision across tasks the last map wins.
    """
    merged: Dict[str, int] = {}
    for gauge_map in maps:
        merged.update(gauge_map)
    return merged


GroupProvider = Callable[[], Iterable[MetricGroup]]
Probe = Callable[[], Dict[str, Any]]


class MetricsRegistry:
    """One federated view over every metric source of a job."""

    def __init__(self) -> None:
        self._static_groups: List[MetricGroup] = []
        self._providers: List[GroupProvider] = []
        self._probes: List[Tuple[str, Probe]] = []
        #: Registry-owned runtime metrics (stall time, lag, occupancy).
        self.runtime = MetricGroup("runtime")

    # -- registration ------------------------------------------------------

    def register_group(self, group: MetricGroup) -> MetricGroup:
        """Register a metric group that lives as long as the job."""
        self._static_groups.append(group)
        return group

    def register_provider(self, provider: GroupProvider) -> None:
        """Register a callable returning the *current* live groups; use
        for groups that are rebuilt on restart (task metrics)."""
        self._providers.append(provider)

    def register_probe(self, name: str, probe: Probe) -> None:
        """Register a pull-based stat source, sampled at snapshot time."""
        self._probes.append((name, probe))

    # -- registry-owned metrics -------------------------------------------

    def counter(self, name: str):
        return self.runtime.counter(name)

    def gauge(self, name: str):
        return self.runtime.gauge(name)

    # -- reading -----------------------------------------------------------

    def _live_groups(self) -> List[MetricGroup]:
        groups = list(self._static_groups)
        groups.append(self.runtime)
        for provider in self._providers:
            groups.extend(provider())
        return groups

    def counters(self) -> Dict[str, int]:
        """Counters merged (summed by unqualified name) across groups."""
        return sum_nested(group.counters()
                          for group in self._live_groups())

    def gauges(self) -> Dict[str, int]:
        return merge_gauge_maps(group.gauges()
                                for group in self._live_groups())

    def scoped_counters(self) -> Dict[str, Dict[str, int]]:
        """Counters keyed by group scope, unmerged -- the per-subtask
        view (``{"map.0": {"records_in": 10, ...}, ...}``)."""
        return sum_nested({group.scope: group.counters()}
                          for group in self._live_groups()
                          if group._counters)

    def probe_results(self) -> Dict[str, Any]:
        return {name: probe() for name, probe in self._probes}

    def snapshot(self) -> Dict[str, Any]:
        """The full federated view, JSON-able."""
        return {
            "counters": self.counters(),
            "gauges": self.gauges(),
            "scoped": self.scoped_counters(),
            "probes": self.probe_results(),
        }

    @staticmethod
    def federate(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
        """Merge per-worker :meth:`snapshot` dicts into one job-level
        view (the multiprocess backend ships one snapshot per worker
        over the control pipe).  Counters sum; gauges union (scopes are
        disjoint across workers, so collisions only hit registry-owned
        runtime gauges, where last-wins matches :func:`merge_gauge_maps`
        semantics); scoped counters and probe results sum leaf by leaf
        (every worker reports a ``"cutty"`` probe, merged the way the
        report's ``cutty`` section is)."""
        snapshots = list(snapshots)

        def parts(name: str) -> List[Dict[str, Any]]:
            return [snap.get(name, {}) for snap in snapshots]

        return {"counters": sum_nested(parts("counters")),
                "gauges": merge_gauge_maps(parts("gauges")),
                "scoped": sum_nested(parts("scoped")),
                "probes": sum_nested(parts("probes"))}

    def __repr__(self) -> str:
        return ("MetricsRegistry(groups=%d, providers=%d, probes=%d)"
                % (len(self._static_groups), len(self._providers),
                   len(self._probes)))
