"""The process-wide metrics registry.

Federates every metric producer of a running job behind one snapshot:

* the existing logical-cost instruments in :mod:`repro.metrics`
  (per-task :class:`~repro.metrics.MetricGroup` counters and gauges,
  Cutty :class:`~repro.metrics.AggregationCostCounter` tables);
* new runtime metrics registered by the engine's observability layer
  (queue occupancy, backpressure-stall time, watermark lag);
* pull-based *probes* -- callables evaluated at snapshot time, which is
  how stats that live inside operators (Cutty sharing counters, slices
  alive) surface without the operator ever pushing.

Groups are registered through *providers* (callables returning the live
groups), not direct references: a supervised restart-from-scratch
rebuilds every task and its metric group, and the registry must follow
the live set rather than keep counting into orphans.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Tuple

from repro.metrics import (
    MetricGroup,
    merge_counter_maps,
    merge_gauge_maps,
    sum_nested,
)

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

    def histogram(self, name: str):
        return self.runtime.histogram(name)

    # -- reading -----------------------------------------------------------

    def _live_groups(self) -> List[MetricGroup]:
        groups = list(self._static_groups)
        groups.append(self.runtime)
        for provider in self._providers:
            groups.extend(provider())
        return groups

    def counters(self) -> Dict[str, int]:
        """Counters merged (summed by unqualified name) across groups."""
        return merge_counter_maps(group.counters()
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
        semantics); scoped counters and probe results union by scope,
        summing on the rare collision."""
        snapshots = list(snapshots)

        def parts(name: str) -> List[Dict[str, Any]]:
            return [snap.get(name, {}) for snap in snapshots]

        return {"counters": merge_counter_maps(parts("counters")),
                "gauges": merge_gauge_maps(parts("gauges")),
                "scoped": sum_nested(parts("scoped")),
                "probes": merge_gauge_maps(parts("probes"))}

    def __repr__(self) -> str:
        return ("MetricsRegistry(groups=%d, providers=%d, probes=%d)"
                % (len(self._static_groups), len(self._providers),
                   len(self._probes)))
