"""Property-based tests for the engine and windowing invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Environment
from repro.ml import ExponentialHistogram, SpaceSaving
from repro.windowing import (
    CountAggregate,
    EventTimeSessionWindows,
    SlidingEventTimeWindows,
    TumblingEventTimeWindows,
)

# A tiny algebra of element-wise transformations whose composition we can
# evaluate independently of the engine.
TRANSFORMS = {
    "inc": (lambda s: s.map(lambda x: x + 1), lambda xs: [x + 1 for x in xs]),
    "dbl": (lambda s: s.map(lambda x: x * 2), lambda xs: [x * 2 for x in xs]),
    "odd": (lambda s: s.filter(lambda x: x % 2 == 1),
            lambda xs: [x for x in xs if x % 2 == 1]),
    "dup": (lambda s: s.flat_map(lambda x: [x, x]),
            lambda xs: [x for v in xs for x in (v, v)]),
}


@settings(max_examples=30, deadline=None)
@given(values=st.lists(st.integers(min_value=-50, max_value=50),
                       max_size=60),
       ops=st.lists(st.sampled_from(sorted(TRANSFORMS)), max_size=6),
       parallelism=st.integers(min_value=1, max_value=4),
       chaining=st.booleans())
def test_random_pipelines_match_python_semantics(values, ops, parallelism,
                                                 chaining):
    """Any composition of map/filter/flatMap over any parallelism and
    chaining setting produces exactly the multiset Python computes."""
    env = Environment(parallelism=parallelism, chaining=chaining)
    stream = env.from_collection(values)
    expected = list(values)
    for op in ops:
        apply_stream, apply_list = TRANSFORMS[op]
        stream = apply_stream(stream)
        expected = apply_list(expected)
    result = stream.collect()
    env.execute()
    assert sorted(result.get()) == sorted(expected)


@settings(max_examples=25, deadline=None)
@given(values=st.lists(st.tuples(st.integers(min_value=0, max_value=5),
                                 st.integers(min_value=0, max_value=1000)),
                       min_size=1, max_size=80),
       size=st.integers(min_value=1, max_value=50),
       parallelism=st.integers(min_value=1, max_value=3))
def test_tumbling_window_counts_partition_the_stream(values, size,
                                                     parallelism):
    """Every timestamped record lands in exactly one tumbling window:
    the window counts sum to the stream size, per key."""
    env = Environment(parallelism=parallelism)
    result = (env.from_collection(values, timestamped=True)
              .key_by(lambda v: v)
              .window(TumblingEventTimeWindows.of(size))
              .aggregate(CountAggregate())
              .collect())
    env.execute()
    assert sum(r.value for r in result.get()) == len(values)


@settings(max_examples=25, deadline=None)
@given(timestamps=st.lists(st.integers(min_value=0, max_value=2000),
                           min_size=1, max_size=60),
       gap=st.integers(min_value=1, max_value=100))
def test_session_windows_cover_all_events_without_overlap(timestamps, gap):
    """Sessions partition each key's events; they never overlap and the
    per-session counts sum to the number of events."""
    values = [("k", ts) for ts in sorted(timestamps)]
    env = Environment()
    result = (env.from_collection(values, timestamped=True)
              .key_by(lambda v: v[0])
              .window(EventTimeSessionWindows.with_gap(gap))
              .aggregate(CountAggregate())
              .collect())
    env.execute()
    sessions = sorted((r.window.start, r.window.end, r.value)
                      for r in result.get())
    assert sum(count for _, _, count in sessions) == len(values)
    for (s1, e1, _), (s2, e2, _) in zip(sessions, sessions[1:]):
        assert e1 <= s2  # strictly ordered, non-overlapping


@settings(max_examples=25, deadline=None)
@given(timestamps=st.lists(st.integers(min_value=0, max_value=500),
                           min_size=1, max_size=50),
       shape=st.tuples(st.integers(min_value=1, max_value=10),
                       st.integers(min_value=1, max_value=10)))
def test_sliding_windows_each_record_in_size_over_slide_windows(timestamps,
                                                                shape):
    multiplier, slide = shape
    size = slide * multiplier
    values = [("k", ts) for ts in timestamps]
    env = Environment()
    result = (env.from_collection(values, timestamped=True)
              .key_by(lambda v: v[0])
              .window(SlidingEventTimeWindows.of(size, slide))
              .aggregate(CountAggregate())
              .collect())
    env.execute()
    # Each record is counted once per containing window: size/slide total.
    assert (sum(r.value for r in result.get())
            == len(values) * (size // slide))


@settings(max_examples=30, deadline=None)
@given(events=st.lists(st.integers(min_value=0, max_value=30),
                       min_size=1, max_size=300))
def test_spacesaving_never_underestimates_beyond_error(events):
    summary = SpaceSaving(capacity=8)
    truth = {}
    for key in events:
        summary.add(key)
        truth[key] = truth.get(key, 0) + 1
    for hitter in summary.top(8):
        true_count = truth.get(hitter.key, 0)
        assert hitter.count >= true_count >= hitter.guaranteed


@settings(max_examples=30, deadline=None)
@given(gaps=st.lists(st.integers(min_value=0, max_value=20),
                     min_size=1, max_size=200),
       window=st.integers(min_value=10, max_value=200))
def test_exponential_histogram_error_bound(gaps, window):
    histogram = ExponentialHistogram(window=window, eps=0.1)
    timestamps = []
    now = 0
    for gap in gaps:
        now += gap
        timestamps.append(now)
        histogram.add(now)
    true_count = sum(1 for ts in timestamps if ts > now - window)
    estimate = histogram.estimate(now)
    assert abs(estimate - true_count) <= max(1, 0.2 * true_count)
