"""Backfill differential property tests: the unified history->stream
path (``DataSet.then_stream`` / ``DataStream.with_history``) against the
brute-force reference over the concatenated record set.

The claims, per ISSUE 7:

* **zero seam gap / zero double-count** -- at randomized cutover
  offsets over out-of-order, duplicated and gappy streams, every input
  record is processed exactly once across the seam (window results equal
  the reference, and the engine's cutover report accounts for every
  record), for event-time, count and session windows;
* **backend parity** -- the same batteries hold on the multiprocess
  shared-nothing backend;
* **degenerate edges** -- empty history, empty stream, history entirely
  late against the stream's first watermark, and a bounded source ending
  mid-window neither crash nor lose records.
"""

import multiprocessing

import pytest

from repro.api import Environment
from repro.runtime.engine import EngineConfig
from repro.testing import reference
from repro.testing.deployment import Deployment
from repro.testing.oracles import (
    BackfillOracle,
    run_hybrid_windows,
    split_for_backfill,
)
from repro.testing.seeds import rng_for, root_seed
from repro.time.watermarks import WatermarkStrategy
from repro.windowing.assigners import (
    EventTimeSessionWindows,
    GlobalWindows,
    TumblingEventTimeWindows,
)
from repro.windowing.triggers import CountTrigger

ROOT = root_seed(default=0)  # REPRO_SEED overridable, default pinned

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


class _SumAgg:
    def create_accumulator(self):
        return 0

    def add(self, record, acc):
        return acc + record[1]

    def merge(self, a, b):
        return a + b

    def get_result(self, acc):
        return acc


def _results_dict(results):
    return {(r.key, r.window.start, r.window.end): r.value for r in results}


# -- seeded batteries --------------------------------------------------------

def test_backfill_oracle_battery_cooperative():
    """The acceptance battery: 20 seeds of randomized cutover offsets
    over OOO/dup/gap streams on the cooperative backend."""
    oracle = BackfillOracle()
    for index in range(20):
        rng = rng_for(ROOT, "backfill-battery", index)
        case = oracle.generate(rng, ROOT, index)
        mismatch = oracle.check(case)
        assert mismatch is None, "%s\n%s" % (case.seed_line, mismatch)


@pytest.mark.skipif(not HAS_FORK,
                    reason="multiprocess backend requires fork")
def test_backfill_oracle_battery_multiprocess():
    """The same battery on the multiprocess backend (smaller streams:
    each case pays process startup)."""
    oracle = BackfillOracle()
    checked = 0
    index = 0
    while checked < 20:
        rng = rng_for(ROOT, "backfill-battery-mp", index)
        case = oracle.generate(rng, ROOT, index)
        index += 1
        if len(case.stream) > 60:
            continue
        case = oracle.deploy(case, Deployment.parse("multiprocess,workers=2"))
        mismatch = oracle.check(case)
        assert mismatch is None, "%s\n%s" % (case.seed_line, mismatch)
        checked += 1


# -- explicit window families across the seam --------------------------------

def _split_elements(elements, cutover):
    history = [e for e in elements if e[2] <= cutover]
    live = [e for e in elements if e[2] > cutover]
    return history, live


@pytest.mark.parametrize("cutover_fraction", [0.1, 0.5, 0.9])
def test_event_time_windows_across_seam(cutover_fraction):
    rng = rng_for(ROOT, "event-time-seam", int(cutover_fraction * 10))
    elements = [("k%d" % rng.randint(0, 3), rng.randint(-5, 9),
                 max(0, t + rng.randint(-4, 4)))
                for t in range(0, 400, 3)]
    stamps = sorted(e[2] for e in elements)
    cutover = stamps[int(len(stamps) * cutover_fraction)]
    history, live = _split_elements(elements, cutover)
    expected = reference.keyed_windows({"kind": "tumbling", "size": 40},
                                       elements, "sum")
    got, env = run_hybrid_windows(history, live, cutover,
                                  {"kind": "tumbling", "size": 40},
                                  "sum", ooo_bound=4)
    assert got == expected
    rows = env.job_report()["cutover"]
    assert sum(r["history_emitted"] + r["stream_emitted"]
               for r in rows) == len(elements)
    assert all(r["history_skipped"] == 0 and r["stream_skipped"] == 0
               for r in rows)


def test_session_windows_across_seam_merge_boundary():
    """Sessions whose gap straddles the cutover must merge: a session
    open at the seam is carried into the stream phase, not fired early
    by the seam watermark."""
    gap = 30
    # One session per key crossing the seam: last history ts 100,
    # first live ts 120 < 100 + gap.
    history = [("a", 1, 10), ("a", 1, 25), ("a", 1, 100),
               ("b", 1, 90), ("b", 1, 100)]
    live = [("a", 1, 120), ("a", 1, 300),
            ("b", 1, 125), ("b", 1, 129)]
    elements = history + live
    expected = reference.keyed_windows({"kind": "session", "gap": gap},
                                       elements, "count")
    got, env = run_hybrid_windows(history, live, 110,
                                  {"kind": "session", "gap": gap},
                                  "count", ooo_bound=0)
    assert got == expected
    # the history record at 100 and the live record at 120 merged into
    # ONE session spanning the seam -- not fired early at the watermark
    assert got[("a", 100, 150)] == 2
    assert got[("b", 90, 159)] == 4


def test_count_windows_across_seam():
    """A count window partially filled by history completes with stream
    records: operator state crosses the seam intact."""
    size = 7
    history = [("k", v, v) for v in range(10)]       # 10 records
    live = [("k", v, v) for v in range(10, 30)]      # 20 records
    env = Environment(parallelism=1)
    collected = (env.read(history)
                 .then_stream(lambda: live)
                 .assign_timestamps_and_watermarks(
                     WatermarkStrategy.for_bounded_out_of_orderness(
                         lambda e: e[2], 0))
                 .key_by(lambda e: e[0])
                 .window(GlobalWindows())
                 .trigger(CountTrigger(size))
                 .aggregate(_SumAgg())
                 .collect())
    env.execute()
    values = sorted(r.value for r in collected.get())
    # arrival order is deterministic at parallelism 1: chunks of 7 over
    # values 0..29; the trailing partial window (2 records) never fires
    expected = sorted(sum(range(30)[i:i + size])
                      for i in range(0, 28, size))
    assert values == expected
    rows = env.job_report()["cutover"]
    assert sum(r["history_emitted"] + r["stream_emitted"]
               for r in rows) == 30


def test_with_history_symmetric_to_then_stream():
    history = [("k", 1, t) for t in range(0, 100, 5)]
    live = [("k", 1, t) for t in range(100, 200, 5)]
    spec = {"kind": "tumbling", "size": 25}
    expected = reference.keyed_windows(spec, history + live, "sum")

    env = Environment(parallelism=2)
    stream = env.from_source(lambda: live).with_history(
        env.read(history), cutover=99, timestamp_fn=lambda e: e[2])
    collected = (stream
                 .assign_timestamps_and_watermarks(
                     WatermarkStrategy.for_bounded_out_of_orderness(
                         lambda e: e[2], 2))
                 .key_by(lambda e: e[0])
                 .window(TumblingEventTimeWindows(25))
                 .aggregate(_SumAgg())
                 .collect())
    env.execute()
    assert _results_dict(collected.get()) == expected


def test_misplaced_records_skipped_exactly_once():
    """Records duplicated onto the wrong side of the cutover are dropped
    (and counted) by the watermark discipline -- no double-counting."""
    elements = [("k%d" % (t % 2), 1, t) for t in range(0, 200, 4)]
    history, live, cutover = split_for_backfill(elements, "watermark",
                                                0.5, 3)
    assert len(history) + len(live) == len(elements) + 6
    expected = reference.keyed_windows({"kind": "tumbling", "size": 40},
                                       elements, "count")
    got, env = run_hybrid_windows(history, live, cutover,
                                  {"kind": "tumbling", "size": 40},
                                  "count", ooo_bound=0)
    assert got == expected
    rows = env.job_report()["cutover"]
    assert sum(r["history_skipped"] for r in rows) == 3
    assert sum(r["stream_skipped"] for r in rows) == 3
    assert sum(r["history_emitted"] + r["stream_emitted"]
               for r in rows) == len(elements)


# -- degenerate edges --------------------------------------------------------

def test_empty_history_side():
    live = [("k", 1, t) for t in range(0, 60, 5)]
    expected = reference.keyed_windows({"kind": "tumbling", "size": 20},
                                       live, "sum")
    got, env = run_hybrid_windows([], live, None,
                                  {"kind": "tumbling", "size": 20},
                                  "sum", ooo_bound=0)
    assert got == expected
    rows = env.job_report()["cutover"]
    assert sum(r["history_emitted"] for r in rows) == 0
    assert sum(r["stream_emitted"] for r in rows) == len(live)


def test_empty_stream_side():
    history = [("k", 1, t) for t in range(0, 60, 5)]
    expected = reference.keyed_windows({"kind": "tumbling", "size": 20},
                                       history, "sum")
    got, env = run_hybrid_windows(history, [], 59,
                                  {"kind": "tumbling", "size": 20},
                                  "sum", ooo_bound=0)
    assert got == expected


def test_both_sides_empty():
    got, env = run_hybrid_windows([], [], None,
                                  {"kind": "tumbling", "size": 20},
                                  "sum", ooo_bound=0)
    assert got == {}


def test_history_entirely_late_vs_stream_first_watermark():
    """History whose event times all precede the stream by more than the
    watermark bound: the cutover discipline still delivers every history
    record (the seam watermark is emitted only *after* the history
    drained, so nothing is late at the seam)."""
    history = [("k", 1, t) for t in range(0, 20)]          # ts 0..19
    live = [("k", 1, t) for t in range(1000, 1020)]        # ts >= 1000
    elements = history + live
    expected = reference.keyed_windows({"kind": "tumbling", "size": 10},
                                       elements, "count")
    got, env = run_hybrid_windows(history, live, 19,
                                  {"kind": "tumbling", "size": 10},
                                  "count", ooo_bound=0)
    assert got == expected
    rows = env.job_report()["cutover"]
    assert sum(r["history_emitted"] for r in rows) == len(history)


def test_bounded_source_ending_mid_window():
    """History ends mid-window; the stream side completes the window.
    The window [40, 80) gets 4 records from history and 4 from live."""
    history = [("k", 1, t) for t in range(0, 60, 5)]       # ts 0..55
    live = [("k", 1, t) for t in range(60, 100, 5)]        # ts 60..95
    expected = reference.keyed_windows({"kind": "tumbling", "size": 80},
                                       history + live, "count")
    got, env = run_hybrid_windows(history, live, 59,
                                  {"kind": "tumbling", "size": 80},
                                  "count", ooo_bound=0)
    assert got == expected
    assert got[("k", 0, 80)] == 16  # 12 history + 4 live, one window


# -- composition guard rails -------------------------------------------------

def test_then_stream_rejects_transformed_dataset():
    env = Environment()
    mapped = env.read(range(10)).map(lambda x: x + 1)
    with pytest.raises(ValueError, match="untransformed source"):
        mapped.then_stream(lambda: range(10, 20))


def test_then_stream_rejects_consumed_source():
    env = Environment()
    data = env.read(range(10))
    data.map(lambda x: x + 1).collect()
    with pytest.raises(ValueError, match="already feeds"):
        data.then_stream(lambda: range(10, 20))


def test_cutover_requires_event_time():
    env = Environment()
    with pytest.raises(ValueError, match="event time"):
        env.read(range(10)).then_stream(lambda: range(10, 20), cutover=5)


def test_hybrid_rejects_cross_environment_sides():
    env1, env2 = Environment(), Environment()
    with pytest.raises(ValueError, match="different environment"):
        env1.read(range(5)).then_stream(env2.from_source(lambda: range(5)))


def test_cutover_downstream_of_operator_rejected_by_planner():
    from repro.plan.graph import GraphValidationError
    env = Environment()
    stream = env.read(range(5)).then_stream(lambda: range(5, 10))
    # force the cutover node downstream of another node
    node = stream.node
    other = env.graph.new_node("pre", lambda: None, 1, is_source=True)
    env.graph.add_edge(other.node_id, node.node_id,
                       stream._edge_partitioner(node.parallelism))
    stream.map(lambda x: x).collect()
    with pytest.raises(GraphValidationError, match="must be a source"):
        env.execute()


# -- shrunk repro regressions ------------------------------------------------

def test_shrunk_repro_single_key_session_at_seam():
    """ddmin-style minimal case: one key, one record per side.  Exactly
    ``gap`` apart the proto-windows touch and merge into one session
    across the seam; one tick further apart they stay separate."""
    gap = 10
    history = [("k", 1, 0)]
    for live_ts, sessions in ((10, 1), (11, 2)):
        live = [("k", 1, live_ts)]
        got, _ = run_hybrid_windows(history, live, 5,
                                    {"kind": "session", "gap": gap},
                                    "count", ooo_bound=0)
        expected = reference.keyed_windows({"kind": "session", "gap": gap},
                                           history + live, "count")
        assert got == expected
        assert len(got) == sessions


def test_shrunk_repro_duplicate_timestamp_on_cutover():
    """Records exactly at the cutover timestamp belong to history; a
    stream-side duplicate at ts == cutover must be skipped."""
    history = [("k", 1, 10), ("k", 1, 10)]
    live = [("k", 7, 10), ("k", 1, 11)]  # ts 10 <= cutover: dropped
    got, env = run_hybrid_windows(history, live, 10,
                                  {"kind": "tumbling", "size": 20},
                                  "sum", ooo_bound=0)
    assert got == {("k", 0, 20): 3}
    rows = env.job_report()["cutover"]
    assert sum(r["stream_skipped"] for r in rows) == 1
