"""Plain-Python references for the six e14 workloads.

Dicts and loops only: nothing here imports ``repro``, so a bug in the
engine's windowing, state, timers or partitioning cannot hide in its own
reference.  Every function takes the generated inputs in *arrival order*
and returns the rows the program must produce.

The out-of-order and late-event rule shared by the windowed references
is the engine's documented contract, restated from the outside: the
watermark operator sits before the filter, so after event ``i`` the
watermark is ``max(ts[0..i]) - bound``; a record is judged against the
watermark of the records *before* it, and is dropped when its window's
last timestamp (``end - 1``) is at or below that watermark.
"""

from collections import Counter

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 2 ** 64


def subtask_of(user, parallelism):
    """Which keyed subtask a ``str`` key lands on (FNV-1a, the engine's
    documented run-stable placement for string keys)."""
    value = _FNV_OFFSET
    for byte in user.encode("utf-8"):
        value = ((value ^ byte) * _FNV_PRIME) % _U64
    return value % parallelism


def window_label(start, end):
    """How a window reaches a JSONL sink (``json.dumps(default=repr)``)."""
    return "TimeWindow[%d, %d)" % (start, end)


def tumbling_sums(events, size_ms, bound_ms, dropped_action):
    """Per-(user, tumbling window) sum of ``dwell_ms``.

    Returns ``(sums, enabling, late_dropped)``: ``sums`` maps
    ``(user, window_start)`` to the sum, in order of the first accepted
    event of each pair (the order the engine registers its timers in);
    ``enabling`` maps a window end to the index of the event whose
    arrival pushed the watermark past that window (the last event for
    windows only closed by end of input).
    """
    sums = {}
    enabling = {}
    late_dropped = 0
    max_seen = None
    watermark = None
    next_end = size_ms
    for index, event in enumerate(events):
        ts = event.timestamp
        if event.action != dropped_action:
            start = ts - ts % size_ms
            if watermark is not None and start + size_ms - 1 <= watermark:
                late_dropped += 1
            else:
                pair = (event.user, start)
                sums[pair] = sums.get(pair, 0) + event.dwell_ms
        if max_seen is None or ts > max_seen:
            max_seen = ts
            watermark = max_seen - bound_ms
            while next_end - 1 <= watermark:
                enabling[next_end] = index
                next_end += size_ms
    last = len(events) - 1
    for _, start in sums:
        enabling.setdefault(start + size_ms, last)
    return sums, enabling, late_dropped


def tumbling_rows(sums, size_ms):
    """The multiset of ``(user, window label, sum)`` rows."""
    return Counter((user, window_label(start, start + size_ms), total)
                   for (user, start), total in sums.items())


def tumbling_order(sums, size_ms, parallelism):
    """Per keyed subtask, the exact order its window operator emits in:
    by window end, then by first accepted arrival of the pair."""
    lanes = [[] for _ in range(parallelism)]
    arrival = {pair: position for position, pair in enumerate(sums)}
    for pair in sorted(sums, key=lambda p: (p[1], arrival[p])):
        user, start = pair
        lanes[subtask_of(user, parallelism)].append(
            (user, window_label(start, start + size_ms), sums[pair]))
    return lanes


def shared_window_rows(events, periodic, session_gaps):
    """Rows of the four-query shared-window job.

    ``periodic`` maps a query id to ``(size, slide)``, ``session_gaps``
    a query id to its gap.  Per user the events are put in event-time
    order (stable, so equal timestamps keep arrival order -- what the
    watermark reorder stage does); a periodic window ``[k*slide,
    k*slide+size)`` is emitted when it holds at least one event, a
    session closes ``gap`` after its last event.
    """
    per_user = {}
    for event in events:
        per_user.setdefault(event.user, []).append(
            (event.timestamp, event.dwell_ms))
    rows = Counter()
    for user, items in per_user.items():
        items.sort(key=lambda item: item[0])
        for query_id, (size, slide) in periodic.items():
            sums = {}
            for ts, value in items:
                start = ts - ts % slide
                while start > ts - size:
                    sums[start] = sums.get(start, 0) + value
                    start -= slide
            for start, total in sums.items():
                rows[(user, query_id, start, start + size, total)] += 1
        for query_id, gap in session_gaps.items():
            session_start = last_ts = None
            total = 0
            for ts, value in items:
                if session_start is None:
                    session_start = ts
                elif ts > last_ts + gap:
                    rows[(user, query_id, session_start, last_ts + gap,
                          total)] += 1
                    session_start = ts
                    total = 0
                total += value
                last_ts = ts
            if session_start is not None:
                rows[(user, query_id, session_start, last_ts + gap,
                      total)] += 1
    return rows


def stateless_digest(count, transform, keep, finish):
    """``(rows, sum, xor)`` of ``finish(transform(x))`` over the kept
    ``x`` in ``range(count)`` -- an order-free digest of the multiset a
    counting sink can be checked against without holding it twice."""
    rows = total = folded = 0
    for x in range(count):
        y = transform(x)
        if keep(y):
            z = finish(y)
            rows += 1
            total += z
            folded ^= z
    return rows, total, folded


def segment_totals(clicks, users, dropped_action):
    """``(segment, dwell_sum, clicks)`` per user segment: clicks are
    filtered, summed per user, joined to the user's segment and summed
    per segment."""
    per_user = {}
    for user, action, dwell_ms in clicks:
        if action == dropped_action:
            continue
        total, count = per_user.get(user, (0, 0))
        per_user[user] = (total + dwell_ms, count + 1)
    per_segment = {}
    for user, segment, _ in users:
        if user not in per_user:
            continue
        total, count = per_user[user]
        seg_total, seg_count = per_segment.get(segment, (0, 0))
        per_segment[segment] = (seg_total + total, seg_count + count)
    return Counter((segment, total, count)
                   for segment, (total, count) in per_segment.items())
