"""Window aggregation baselines for the Cutty comparison (E1-E5).

Every baseline shares the Cutty aggregator's interface --
``insert(value, ts) -> [CuttyResult]``, ``flush(max_ts)``, a shared
:class:`~repro.observability.AggregationCostCounter` and a ``live_partials``
property -- so the benchmark harness swaps strategies freely.

The :data:`STRATEGIES` registry names every aggregation strategy
(including Cutty itself) together with the window-spec kinds it can
execute; :func:`build_strategy` and :func:`applicable_strategies` are
what the differential harness (:mod:`repro.testing`) and benchmarks use
to fan one workload out across all comparable strategies.
"""

from typing import Any, Callable, Dict, Iterable, List, Tuple

from repro.cutty.baselines.eager import EagerPerWindowAggregator
from repro.cutty.baselines.lazy import LazyRecomputeAggregator
from repro.cutty.baselines.pairs import PairsAggregator
from repro.cutty.baselines.panes import PanesAggregator
from repro.cutty.baselines.bint import BIntAggregator
from repro.cutty.baselines.unshared import UnsharedMultiQueryAggregator

__all__ = [
    "EagerPerWindowAggregator",
    "LazyRecomputeAggregator",
    "PairsAggregator",
    "PanesAggregator",
    "BIntAggregator",
    "UnsharedMultiQueryAggregator",
    "STRATEGIES",
    "applicable_strategies",
    "build_strategy",
]


def _build_cutty(aggregate_factory, specs):
    from repro.cutty.sharing import SharedCuttyAggregator
    return SharedCuttyAggregator(aggregate_factory(), specs)


def _build_unshared_linear(aggregator_class):
    def build(aggregate_factory, specs):
        return UnsharedMultiQueryAggregator(
            lambda query_id, counter: aggregator_class(
                aggregate_factory(), specs[query_id].size,
                specs[query_id].slide, counter, query_id=query_id),
            list(specs))
    return build


#: strategy name -> (window-spec kinds it supports, builder).  A builder
#: takes ``(aggregate_factory, specs)`` where ``specs`` maps query id to
#: a *fresh* WindowSpec instance, and returns an aggregator with the
#: common ``insert`` / ``flush`` interface.
STRATEGIES: Dict[str, Tuple[Tuple[str, ...], Callable[..., Any]]] = {
    "cutty": (("periodic", "session", "count", "punctuation", "delta"),
              _build_cutty),
    "lazy": (("periodic", "session", "count", "punctuation", "delta"),
             lambda aggregate_factory, specs:
             LazyRecomputeAggregator(aggregate_factory(), specs)),
    "bint": (("periodic", "session", "count", "punctuation", "delta"),
             lambda aggregate_factory, specs:
             BIntAggregator(aggregate_factory(), specs)),
    # Eager needs a static window assignment (spec.assign).
    "eager": (("periodic", "count"),
              lambda aggregate_factory, specs:
              EagerPerWindowAggregator(aggregate_factory(), specs)),
    # Pairs/Panes slice periodic windows only; multi-query runs unshared.
    "pairs": (("periodic",), _build_unshared_linear(PairsAggregator)),
    "panes": (("periodic",), _build_unshared_linear(PanesAggregator)),
}


def applicable_strategies(kinds: Iterable[str]) -> List[str]:
    """Strategy names able to execute *every* spec kind in ``kinds``."""
    kinds = set(kinds)
    return [name for name, (supported, _) in STRATEGIES.items()
            if kinds <= set(supported)]


def build_strategy(name: str, aggregate_factory: Callable[[], Any],
                   specs: Dict[Any, Any]) -> Any:
    """Instantiate strategy ``name`` over ``{query_id: WindowSpec}``."""
    try:
        _, builder = STRATEGIES[name]
    except KeyError:
        raise ValueError("unknown strategy %r (have: %s)"
                         % (name, ", ".join(sorted(STRATEGIES))))
    return builder(aggregate_factory, specs)
