"""Seeded generators for streams, window specs and pipeline specs.

Everything here is a pure function of a :class:`random.Random` (from
:mod:`repro.testing.seeds`), so a (root seed, oracle, case index) triple
regenerates a case bit-identically.  Streams bake in what fixed fixtures
never cover together: out-of-order timestamps, duplicates, key skew,
session gaps on the merge boundary and bursts of equal timestamps.  They
come in two shapes: in-order ``(value, ts)`` streams for Cutty and the
baselines, and keyed ``(key, value, ts)`` streams whose jitter never
exceeds the profile's out-of-orderness bound, for the engine oracles.
Specs are JSON-able parameter dicts plus factories that build fresh
objects from them: the shrinker and the repro printer need data, not
closures.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.cutty.specs import (
    CountWindows,
    DeltaWindows,
    PeriodicWindows,
    PunctuationWindows,
    SessionWindows,
    WindowSpec,
)
from repro.windowing.aggregates import (
    AggregateFunction,
    AvgAggregate,
    CountAggregate,
    MaxAggregate,
    MinAggregate,
    MinMaxSumCountAggregate,
    SumAggregate,
)
from repro.windowing.assigners import (
    EventTimeSessionWindows,
    SlidingEventTimeWindows,
    TumblingEventTimeWindows,
    WindowAssigner,
)

# -- element streams ---------------------------------------------------------


@dataclass
class StreamProfile:
    """Knobs of one generated keyed element stream."""

    num_elements: int
    num_keys: int
    key_skew: float
    ooo_bound: int
    duplicate_prob: float
    max_gap: int
    session_gap_prob: float
    session_gap: int
    value_lo: int = -20
    value_hi: int = 50

    @classmethod
    def random(cls, rng: random.Random,
               max_elements: int = 160) -> "StreamProfile":
        return cls(
            num_elements=rng.randint(5, max_elements),
            num_keys=rng.randint(1, 6),
            key_skew=rng.choice([0.0, 0.0, 1.0, 2.0]),
            ooo_bound=rng.choice([0, 0, 3, 10, 25]),
            duplicate_prob=rng.choice([0.0, 0.05, 0.15]),
            max_gap=rng.choice([1, 3, 8, 20]),
            session_gap_prob=rng.choice([0.0, 0.03, 0.08]),
            session_gap=rng.randint(50, 400),
        )


def _pick_key(rng: random.Random, num_keys: int, skew: float) -> str:
    """Zipf-ish key choice: rank r drawn with weight 1 / (r + 1)^skew."""
    if num_keys == 1 or skew == 0.0:
        return "k%d" % rng.randrange(num_keys)
    weights = [1.0 / ((rank + 1) ** skew) for rank in range(num_keys)]
    total = sum(weights)
    point = rng.random() * total
    acc = 0.0
    for rank, weight in enumerate(weights):
        acc += weight
        if point <= acc:
            return "k%d" % rank
    return "k%d" % (num_keys - 1)


def generate_elements(rng: random.Random,
                      profile: StreamProfile) -> List[Tuple[str, int, int]]:
    """A keyed ``(key, value, ts)`` stream following ``profile``.

    Timestamps jitter at most ``profile.ooo_bound`` behind the running
    maximum, so a bounded-out-of-orderness watermark with that bound
    admits every element.
    """
    elements: List[Tuple[str, int, int]] = []
    base_ts = rng.randint(0, 50)
    for _ in range(profile.num_elements):
        if elements and rng.random() < profile.duplicate_prob:
            elements.append(elements[-1])
            continue
        if rng.random() < profile.session_gap_prob:
            base_ts += profile.session_gap + rng.randint(0, profile.max_gap)
        else:
            base_ts += rng.randint(0, profile.max_gap)
        ts = base_ts - rng.randint(0, profile.ooo_bound)
        elements.append((_pick_key(rng, profile.num_keys, profile.key_skew),
                         rng.randint(profile.value_lo, profile.value_hi),
                         max(0, ts)))
    return elements


def generate_in_order_stream(rng: random.Random, n: int, max_gap: int = 12,
                             session_gap_prob: float = 0.05,
                             session_gap: int = 120,
                             value_lo: int = -20,
                             value_hi: int = 50,
                             min_gap: int = 0) -> List[Tuple[int, int]]:
    """A FIFO ``(value, ts)`` stream (non-decreasing ts; with the default
    ``min_gap=0`` equal timestamps occur).  Pass ``min_gap=1`` for
    strictly increasing timestamps -- required by content-sensitive
    specs (delta, punctuation) whose split position between equal-ts
    elements is not expressible as a timestamp boundary."""
    ts = rng.randint(0, 30)
    stream = []
    for _ in range(n):
        if rng.random() < session_gap_prob:
            ts += session_gap + rng.randint(min_gap, max_gap)
        else:
            ts += rng.randint(min_gap, max_gap)
        stream.append((rng.randint(value_lo, value_hi), ts))
    return stream


def generate_gap_pattern_elements(rng: random.Random, gap: int, n: int,
                                  num_keys: int = 3,
                                  ooo_bound: int = 0
                                  ) -> List[Tuple[str, int, int]]:
    """Keyed elements whose per-key inter-element gaps cluster on the
    session merge boundary (``gap - 1``, ``gap``, ``gap + 1``) -- the
    off-by-one surface of session-window merging.

    Timestamps are exact (the boundary gaps survive untouched); the
    *arrival order* is what carries the out-of-orderness: elements are
    emitted sorted by ``ts + jitter`` with jitter in ``[0, ooo_bound]``,
    so any element trails the running timestamp maximum by at most
    ``ooo_bound`` -- the contract the engine oracles' watermark bound
    relies on."""
    boundary_gaps = [0, 1, gap - 1, gap, gap + 1, 2 * gap + 1]
    per_key_ts = {"k%d" % k: rng.randint(0, gap) for k in range(num_keys)}
    elements = []
    for _ in range(n):
        key = "k%d" % rng.randrange(num_keys)
        per_key_ts[key] += max(0, rng.choice(boundary_gaps))
        elements.append((key, rng.randint(-5, 9), per_key_ts[key]))
    keyed = [(element[2] + rng.randint(0, ooo_bound), position, element)
             for position, element in enumerate(elements)]
    keyed.sort(key=lambda entry: entry[:2])
    return [element for _, _, element in keyed]


# -- window specs (Cutty WDFs) ----------------------------------------------

SPEC_KINDS = ("periodic", "session", "count", "punctuation", "delta")


def random_spec_params(rng: random.Random,
                       kinds: Tuple[str, ...] = SPEC_KINDS) -> Dict[str, Any]:
    kind = rng.choice(list(kinds))
    if kind == "periodic":
        slide = rng.randint(1, 25)
        size = slide * rng.randint(1, 8) + rng.randint(0, slide - 1)
        return {"kind": kind, "size": max(size, slide), "slide": slide}
    if kind == "session":
        return {"kind": kind, "gap": rng.randint(2, 60)}
    if kind == "count":
        slide = rng.randint(1, 10)
        return {"kind": kind, "size": slide + rng.randint(0, 12),
                "slide": slide}
    if kind == "punctuation":
        return {"kind": kind, "modulus": rng.randint(2, 7)}
    if kind == "delta":
        return {"kind": kind, "delta": rng.randint(3, 40)}
    raise ValueError("unknown spec kind %r" % kind)


def make_spec(params: Dict[str, Any]) -> WindowSpec:
    """A fresh (stateless-so-far) WindowSpec from its parameter dict."""
    kind = params["kind"]
    if kind == "periodic":
        return PeriodicWindows(params["size"], params["slide"])
    if kind == "session":
        return SessionWindows(params["gap"])
    if kind == "count":
        return CountWindows(params["size"], params["slide"])
    if kind == "punctuation":
        modulus = params["modulus"]
        return PunctuationWindows(lambda value: value % modulus == 0)
    if kind == "delta":
        return DeltaWindows(float(params["delta"]))
    raise ValueError("unknown spec kind %r" % kind)


def random_query_set(rng: random.Random,
                     max_queries: int = 3,
                     kinds: Tuple[str, ...] = SPEC_KINDS
                     ) -> Dict[str, Dict[str, Any]]:
    """1..max_queries named window queries for a shared aggregator."""
    return {"q%d" % index: random_spec_params(rng, kinds)
            for index in range(rng.randint(1, max_queries))}


# -- aggregates --------------------------------------------------------------

AGGREGATE_FACTORIES: Dict[str, Callable[[], AggregateFunction]] = {
    "sum": SumAggregate,
    "count": CountAggregate,
    "min": MinAggregate,
    "max": MaxAggregate,
    "avg": AvgAggregate,
    "stats": MinMaxSumCountAggregate,
}

#: Aggregates whose results are exactly comparable regardless of the
#: combine order (integer inputs keep sum/avg exact).
DEFAULT_AGGREGATE_NAMES = ("sum", "count", "min", "max", "stats")


def random_aggregate_name(rng: random.Random,
                          names: Tuple[str, ...] = DEFAULT_AGGREGATE_NAMES
                          ) -> str:
    return rng.choice(list(names))


def make_aggregate(name: str) -> AggregateFunction:
    return AGGREGATE_FACTORIES[name]()


def apply_aggregate(name: str, values: List[Any]) -> Any:
    """Fold raw values through the aggregate -- the naive reference path."""
    aggregate = make_aggregate(name)
    accumulator = aggregate.create_accumulator()
    for value in values:
        accumulator = aggregate.add(value, accumulator)
    return aggregate.get_result(accumulator)


# -- engine-level window assigners -------------------------------------------

ASSIGNER_KINDS = ("tumbling", "sliding", "session")


def random_assigner_params(rng: random.Random,
                           kinds: Tuple[str, ...] = ASSIGNER_KINDS
                           ) -> Dict[str, Any]:
    kind = rng.choice(list(kinds))
    if kind == "tumbling":
        return {"kind": kind, "size": rng.randint(5, 120)}
    if kind == "sliding":
        slide = rng.randint(2, 40)
        return {"kind": kind, "slide": slide,
                "size": slide * rng.randint(1, 5)}
    if kind == "session":
        return {"kind": kind, "gap": rng.randint(3, 80)}
    raise ValueError("unknown assigner kind %r" % kind)


def make_assigner(params: Dict[str, Any]) -> WindowAssigner:
    kind = params["kind"]
    if kind == "tumbling":
        return TumblingEventTimeWindows.of(params["size"])
    if kind == "sliding":
        return SlidingEventTimeWindows.of(params["size"], params["slide"])
    if kind == "session":
        return EventTimeSessionWindows.with_gap(params["gap"])
    raise ValueError("unknown assigner kind %r" % kind)


# -- batch/stream pipeline specs ---------------------------------------------

MAP_FNS: Dict[str, Callable[[int], int]] = {
    "identity": lambda value: value,
    "double": lambda value: value * 2,
    "plus3": lambda value: value + 3,
    "abs": abs,
    "negate": lambda value: -value,
}

FILTER_FNS: Dict[str, Callable[[int], bool]] = {
    "all": lambda value: True,
    "even": lambda value: value % 2 == 0,
    "nonneg": lambda value: value >= 0,
    "mod3": lambda value: value % 3 != 0,
}

#: Aggregates every engine path computes exactly.
GROUP_AGG_NAMES = ("sum", "count", "min", "max")


def random_pipeline_params(rng: random.Random) -> Dict[str, Any]:
    return {
        "map": rng.choice(list(MAP_FNS)),
        "filter": rng.choice(list(FILTER_FNS)),
        "agg": rng.choice(list(GROUP_AGG_NAMES)),
        "parallelism": rng.choice([1, 2, 3]),
    }
