"""Naive reference recomputation: the ground truth every oracle diffs
against.

These evaluators deliberately share *no* code with the engine, the Cutty
slicer or the baselines: each window semantics is re-derived from its
definition with brute force (scan the whole stream per window).  Slow
and obviously correct is the whole point -- a bug would have to be made
twice, independently, to go unnoticed.

Window results are keyed ``(start, end)`` (or ``(query_id, start, end)``
/ ``(key, start, end)`` at the callers); only nonempty windows appear,
matching the emit-nothing-for-empty-windows convention of the operator
and of every aggregation strategy.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.testing.generators import apply_aggregate, make_assigner

Stream = List[Tuple[Any, int]]          # in-order (value, ts)
Elements = List[Tuple[Any, Any, int]]   # keyed (key, value, ts)


# -- Cutty window-spec references (in-order streams) -------------------------

def spec_windows(params: Dict[str, Any], stream: Stream,
                 aggregate_name: str) -> Dict[Tuple[Any, Any], Any]:
    """Expected ``{(start, end): value}`` for one WindowSpec over an
    in-order stream, by brute force."""
    kind = params["kind"]
    if kind == "periodic":
        return _periodic(stream, params["size"], params["slide"],
                         aggregate_name)
    if kind == "session":
        return _sessions(stream, params["gap"], aggregate_name)
    if kind == "count":
        return _count(stream, params["size"], params["slide"], aggregate_name)
    if kind == "punctuation":
        modulus = params["modulus"]
        return _split_windows(stream, aggregate_name,
                              splits_before=lambda value, opening:
                              value % modulus == 0)
    if kind == "delta":
        delta = float(params["delta"])
        return _split_windows(stream, aggregate_name,
                              splits_before=lambda value, opening:
                              abs(float(value) - float(opening)) >= delta)
    raise ValueError("unknown spec kind %r" % kind)


def _periodic(stream: Stream, size: int, slide: int,
              aggregate_name: str) -> Dict[Tuple[int, int], Any]:
    """Sliding windows ``[k*slide, k*slide + size)``, enumerated from the
    first window containing the first element up to the flush horizon
    (windows starting at or before the last timestamp)."""
    if not stream:
        return {}
    first_ts = stream[0][1]
    last_ts = max(ts for _, ts in stream)
    earliest = ((first_ts - size) // slide + 1) * slide
    expected = {}
    for start in range(earliest, last_ts + 1, slide):
        values = [value for value, ts in stream if start <= ts < start + size]
        if values:
            expected[(start, start + size)] = apply_aggregate(aggregate_name,
                                                              values)
    return expected


def _sessions(stream: Stream, gap: int,
              aggregate_name: str) -> Dict[Tuple[int, int], Any]:
    """Runs whose successive timestamps are at most ``gap`` apart, each
    window closing ``gap`` after its run's last timestamp."""
    runs: List[Stream] = []
    for value, ts in stream:
        if not runs or ts > runs[-1][-1][1] + gap:
            runs.append([])
        runs[-1].append((value, ts))
    return {(run[0][1], run[-1][1] + gap):
            apply_aggregate(aggregate_name, [value for value, _ in run])
            for run in runs}


def _count(stream: Stream, size: int, slide: int,
           aggregate_name: str) -> Dict[Tuple[int, int], Any]:
    """Count windows live in the sequence domain; only complete windows
    are ever emitted (no count-window flush)."""
    expected = {}
    for start in range(0, len(stream) - size + 1, slide):
        values = [value for value, _ in stream[start:start + size]]
        expected[(start, start + size)] = apply_aggregate(aggregate_name,
                                                          values)
    return expected


def _split_windows(stream: Stream, aggregate_name: str,
                   splits_before) -> Dict[Tuple[int, int], Any]:
    """Punctuation/delta semantics: the first element opens a window; an
    element satisfying ``splits_before(value, opening_value)`` closes the
    current window *exclusive of itself* at its timestamp and opens a new
    one (including itself); flush closes the last window at
    ``last_ts + 1``."""
    expected = {}
    window: List[Any] = []
    window_start = opening = None
    last_ts = None
    for value, ts in stream:
        if window_start is not None and splits_before(value, opening):
            expected[(window_start, ts)] = apply_aggregate(aggregate_name,
                                                           window)
            window, window_start, opening = [], ts, value
        elif window_start is None:
            window_start, opening = ts, value
        window.append(value)
        last_ts = ts
    if window:
        expected[(window_start, last_ts + 1)] = apply_aggregate(
            aggregate_name, window)
    return expected


# -- keyed event-time references (engine-level oracles) ----------------------

def keyed_windows(params: Dict[str, Any], elements: Elements,
                  aggregate_name: str) -> Dict[Tuple[Any, int, int], Any]:
    """Expected ``{(key, start, end): value}`` for a keyed event-time
    window over (possibly out-of-order) elements.

    Event-time semantics are arrival-order independent, so the reference
    works on the element *set*: assignment by timestamp for periodic
    windows, sort-and-merge for sessions.
    """
    kind = params["kind"]
    if kind == "session":
        return _keyed_sessions(elements, params["gap"], aggregate_name)
    assigner = make_assigner(params)
    buckets: Dict[Tuple[Any, int, int], List[Any]] = {}
    for key, value, ts in elements:
        for window in assigner.assign(value, ts):
            buckets.setdefault((key, window.start, window.end),
                               []).append(value)
    return {coords: apply_aggregate(aggregate_name, values)
            for coords, values in buckets.items()}


def _keyed_sessions(elements: Elements, gap: int,
                    aggregate_name: str) -> Dict[Tuple[Any, int, int], Any]:
    """Per key: sort by timestamp, then merge as :func:`_sessions` does
    (runs whose successive timestamps are at most ``gap`` apart)."""
    per_key: Dict[Any, Stream] = {}
    for key, value, ts in elements:
        per_key.setdefault(key, []).append((value, ts))
    return {(key,) + window: value
            for key, stream in per_key.items()
            for window, value in _sessions(
                sorted(stream, key=lambda pair: pair[1]), gap,
                aggregate_name).items()}


# -- grouped (unwindowed) pipeline reference ---------------------------------

def grouped_pipeline(elements: List[Tuple[Any, int]],
                     map_fn, filter_fn,
                     aggregate_name: str) -> Dict[Any, Any]:
    """Expected ``{key: value}`` for map -> filter -> group-aggregate."""
    groups: Dict[Any, List[int]] = {}
    for key, value in elements:
        mapped = map_fn(value)
        if filter_fn(mapped):
            groups.setdefault(key, []).append(mapped)
    return {key: apply_aggregate(aggregate_name, values)
            for key, values in groups.items()}
