"""Differential pinning of ``WindowOperator`` under lateness and triggers.

Tumbling and sliding assigners x ``allowed_lateness`` in {0, inside,
beyond} x {default, ``CountTrigger``, ``ContinuousEventTimeTrigger``,
``PurgingTrigger``} x {aggregate, buffering}, over generated streams
whose disorder exceeds the watermark bound (so records arrive behind the
watermark), compared with a brute-force reference on the *exact per-key
emission sequence* -- including the one re-fire a straggler admitted
into an already-fired window causes -- and on the late records dropped.

The reference below shares no code with ``repro.windowing``: windows are
``(start, end)`` tuples, state is dicts of lists, timers are a dict
scanned in full on every watermark.  The job runs at parallelism 1 with
a watermark after every record (``max timestamp seen - bound``), which
the reference recomputes from the input alone.

Last in the file: the periodic assigners intern their windows, and a
hypothesis property checks that a long-lived assigner still assigns
what a fresh one does.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Environment
from repro.testing.generators import StreamProfile, generate_elements
from repro.testing.seeds import rng_for, root_seed
from repro.time import WatermarkStrategy
from repro.windowing import (
    ContinuousEventTimeTrigger,
    CountTrigger,
    EventTimeTrigger,
    PurgingTrigger,
    SlidingEventTimeWindows,
    SumAggregate,
    TumblingEventTimeWindows,
)

ROOT = root_seed(default=0)  # REPRO_SEED overridable, default pinned

WATERMARK_BOUND = 4
END_OF_STREAM = 2**62
LATE = "LATE"

ASSIGNERS = {
    "tumbling": {"size": 40, "slide": 40},
    "sliding": {"size": 60, "slide": 20},
}
#: 0 drops every record behind its window's end; 12 admits some
#: stragglers and drops others (disorder reaches 25 behind a watermark
#: that trails by 4); 1000 admits everything the streams contain.
LATENESS = {"none": 0, "inside": 12, "beyond": 1000}
COUNT = 3
INTERVAL = 15
TRIGGERS = {
    "default": lambda: None,
    "count": lambda: CountTrigger(COUNT),
    "continuous": lambda: ContinuousEventTimeTrigger(INTERVAL),
    "purging": lambda: PurgingTrigger.of(EventTimeTrigger()),
}

FIRE, PURGE = "fire", "purge"


class FieldSum(SumAggregate):
    def add(self, value, accumulator):
        return accumulator + value[1]


def sum_process_fn(key, window, values):
    yield (key, window.start, window.end, sum(value[1] for value in values))


# -- the reference -----------------------------------------------------------


class Reference:
    """What the job must emit, by simulation in plain dicts."""

    def __init__(self, size, slide, lateness, trigger):
        self.size, self.slide, self.lateness = size, slide, lateness
        self.trigger = trigger
        self.watermark = -END_OF_STREAM
        self.contents = {}      # (key, window) -> [values]
        self.scratch = {}       # (key, window) -> {"count" / "next_fire"}
        self.timers = {}        # (ts, key, kind, window) -> registration no.
        self.registrations = 0
        self.emitted = {}       # key -> [(start, end, sum)]
        self.late = []

    def windows_of(self, ts):
        windows = []
        start = ts - ts % self.slide
        while start > ts - self.size:
            windows.append((start, start + self.size))
            start -= self.slide
        return windows

    def register(self, ts, key, kind, window):
        if (ts, key, kind, window) not in self.timers:
            self.timers[(ts, key, kind, window)] = self.registrations
            self.registrations += 1

    # One method per trigger callback; each returns the actions to take.

    def on_element(self, key, window, ts):
        pair, last = (key, window), window[1] - 1
        if self.trigger == "count":
            scratch = self.scratch.setdefault(pair, {})
            scratch["count"] = scratch.get("count", 0) + 1
            if scratch["count"] >= COUNT:
                scratch["count"] = 0
                return (FIRE, PURGE)
            return ()
        self.register(last, key, "trigger", window)
        if self.trigger == "continuous":
            scratch = self.scratch.setdefault(pair, {})
            if "next_fire" not in scratch:
                next_fire = ts - ts % INTERVAL + INTERVAL
                if next_fire < last:
                    scratch["next_fire"] = next_fire
                    self.register(next_fire, key, "trigger", window)
        return ()

    def on_trigger_timer(self, key, window, ts):
        last = window[1] - 1
        if self.trigger == "count":
            return ()
        if ts >= last:
            return (FIRE, PURGE) if self.trigger == "purging" else (FIRE,)
        scratch = self.scratch.get((key, window), {})
        if self.trigger == "continuous" and ts == scratch.get("next_fire"):
            if ts + INTERVAL < last:
                scratch["next_fire"] = ts + INTERVAL
                self.register(ts + INTERVAL, key, "trigger", window)
            else:
                del scratch["next_fire"]
            return (FIRE,)
        return ()

    def act(self, key, window, actions):
        if FIRE in actions:
            self.emitted.setdefault(key, []).append(
                window + (sum(self.contents[(key, window)]),))
        if PURGE in actions:
            self.clear(key, window)

    def clear(self, key, window):
        last = window[1] - 1
        self.contents.pop((key, window), None)
        scratch = self.scratch.pop((key, window), {})
        self.timers.pop((last, key, "trigger", window), None)
        if "next_fire" in scratch:
            self.timers.pop((scratch["next_fire"], key, "trigger", window),
                            None)
        self.timers.pop((last + self.lateness, key, "cleanup", window), None)

    def record(self, key, value, ts):
        landed = False
        for window in self.windows_of(ts):
            last = window[1] - 1
            if last + self.lateness <= self.watermark:
                continue
            landed = True
            self.contents.setdefault((key, window), []).append(value)
            actions = self.on_element(key, window, ts)
            # Registered after the trigger's own timers, so that at equal
            # timestamps the window fires before it is cleaned up.
            self.register(last + self.lateness, key, "cleanup", window)
            self.act(key, window, actions)
        if not landed:
            self.late.append((key, value, ts))

    def advance(self, watermark):
        if watermark <= self.watermark:
            return
        # Everything due is taken out first, then run in (timestamp,
        # registration) order; timers registered meanwhile wait for the
        # next sweep of the same advance.
        while True:
            due = sorted((entry for entry in self.timers
                          if entry[0] <= watermark),
                         key=lambda entry: (entry[0], self.timers[entry]))
            if not due:
                break
            for entry in due:
                del self.timers[entry]
            for ts, key, kind, window in due:
                if kind == "cleanup":
                    self.clear(key, window)
                elif (key, window) in self.contents:
                    self.act(key, window,
                             self.on_trigger_timer(key, window, ts))
        self.watermark = watermark


def expected_output(elements, size, slide, lateness, trigger):
    reference = Reference(size, slide, lateness, trigger)
    max_seen = None
    for key, value, ts in elements:
        reference.record(key, value, ts)
        max_seen = ts if max_seen is None else max(max_seen, ts)
        reference.advance(max_seen - WATERMARK_BOUND)
    reference.advance(END_OF_STREAM)
    return reference.emitted, reference.late


# -- the job -----------------------------------------------------------------


def run_job(elements, assigner, lateness, trigger, mode):
    env = Environment(parallelism=1)
    strategy = WatermarkStrategy.for_bounded_out_of_orderness(
        lambda element: element[2], WATERMARK_BOUND)
    windowed = (env.from_collection(elements)
                .assign_timestamps_and_watermarks(strategy)
                .key_by(lambda element: element[0])
                .window(assigner)
                .allowed_lateness(lateness)
                .side_output_late_data(LATE))
    if trigger is not None:
        windowed = windowed.trigger(trigger)
    if mode == "aggregate":
        results = windowed.aggregate(FieldSum()).collect()
    else:
        results = windowed.apply(sum_process_fn).collect()
    env.execute()
    emitted, late = {}, []
    for row in results.get():
        if type(row) is tuple and row[0] == LATE:
            late.append(row[1])
        elif mode == "aggregate":
            emitted.setdefault(row.key, []).append(
                (row.window.start, row.window.end, row.value))
        else:
            emitted.setdefault(row[0], []).append(row[1:])
    return emitted, late


def late_heavy_elements(rng):
    """Out of order by up to 25 behind the running maximum, against a
    watermark that trails it by only ``WATERMARK_BOUND``."""
    profile = StreamProfile.random(rng, max_elements=140)
    profile.ooo_bound = 25
    profile.num_elements = max(profile.num_elements, 40)
    return generate_elements(rng, profile)


@pytest.mark.parametrize("mode", ["aggregate", "buffering"])
@pytest.mark.parametrize("trigger_name", sorted(TRIGGERS))
@pytest.mark.parametrize("lateness_name", sorted(LATENESS))
@pytest.mark.parametrize("assigner_name", sorted(ASSIGNERS))
def test_emission_sequences_match_reference(assigner_name, lateness_name,
                                            trigger_name, mode):
    shape = ASSIGNERS[assigner_name]
    lateness = LATENESS[lateness_name]
    for case_index in range(3):
        rng = rng_for(ROOT, "window-operator-differential", assigner_name,
                      lateness_name, trigger_name, case_index)
        elements = late_heavy_elements(rng)
        if assigner_name == "tumbling":
            assigner = TumblingEventTimeWindows.of(shape["size"])
        else:
            assigner = SlidingEventTimeWindows.of(shape["size"],
                                                  shape["slide"])
        emitted, late = run_job(elements, assigner, lateness,
                                TRIGGERS[trigger_name](), mode)
        want_emitted, want_late = expected_output(
            elements, shape["size"], shape["slide"], lateness, trigger_name)
        context = "root=%d case=%d" % (ROOT, case_index)
        assert emitted == want_emitted, context
        assert late == want_late, context


def test_a_straggler_refires_its_window_once():
    """The hand-checkable core of the battery: a record admitted by the
    allowed lateness into a window that has fired makes it fire again,
    with the refined value, at the next watermark."""
    elements = [("k", 1, 10), ("k", 2, 60), ("k", 4, 12), ("k", 8, 13),
                ("k", 16, 70), ("k", 32, 14), ("k", 64, 200)]
    emitted, late = run_job(elements, TumblingEventTimeWindows.of(40), 50,
                            None, "aggregate")
    # [0, 40) fires at watermark 56 with 1; the two stragglers behind
    # watermark 56 share one re-fire at watermark 66 (1 + 4 + 8); the
    # third re-fires it alone at watermark 196, ahead of [40, 80).
    assert emitted == {"k": [(0, 40, 1), (0, 40, 13), (0, 40, 45),
                             (40, 80, 18), (200, 240, 64)]}
    assert emitted == expected_output(elements, 40, 40, 50, "default")[0]
    assert late == []


# -- interned windows -----------------------------------------------------------


@st.composite
def periodic_assigner_walks(draw):
    """``(size, slide, offset, timestamps)``: a walk with small steps
    inside a window, leaps over more starts than an assigner keeps
    interned (forwards and backwards), negative timestamps, and sizes
    that are no multiple of the slide."""
    slide = draw(st.integers(min_value=1, max_value=40))
    size = slide + draw(st.integers(min_value=0, max_value=3 * slide))
    offset = draw(st.integers(min_value=0, max_value=slide - 1))
    step = st.one_of(
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-12 * size, max_value=12 * size))
    position = draw(st.integers(min_value=-1000, max_value=1000))
    timestamps = []
    for delta in draw(st.lists(step, min_size=1, max_size=80)):
        position += delta
        timestamps.append(position)
    return size, slide, offset, timestamps


@settings(max_examples=200, deadline=None)
@given(walk=periodic_assigner_walks())
def test_a_long_lived_assigner_assigns_what_a_fresh_one_does(walk):
    """Interning is invisible: whatever a long-lived tumbling or sliding
    assigner was asked before, it returns the windows a fresh assigner
    returns (which are the windows containing the timestamp), and the
    same objects for the same start while it still holds them."""
    size, slide, offset, timestamps = walk
    sliding = SlidingEventTimeWindows(size, slide, offset)
    tumbling = TumblingEventTimeWindows(slide, offset)
    for timestamp in timestamps:
        windows = sliding.assign(None, timestamp)
        assert windows == SlidingEventTimeWindows(
            size, slide, offset).assign(None, timestamp)
        assert [(w.start, w.end) for w in windows] == [
            (start, start + size)
            for start in range(timestamp, timestamp - size, -1)
            if (start - offset) % slide == 0]
        assert sliding.assign(None, timestamp) is windows
        window, = tumbling.assign(None, timestamp)
        assert [window] == TumblingEventTimeWindows(
            slide, offset).assign(None, timestamp)
        assert window.contains(timestamp) and window.size == slide
        assert tumbling.assign(None, window.start)[0] is window
        assert max(len(sliding._interned), len(tumbling._interned)) <= 8
