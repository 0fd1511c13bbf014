"""The six e14 workloads: inputs, programs, and how each round is scored.

A workload generates its inputs from the seed (every RNG comes from
``repro.testing.seeds``), builds a fresh ``Environment`` per round over
those inputs, and scores the round's output against the plain-Python
reference in :mod:`reference`.  The program receives only the generated
inputs; nothing here looks at a workload's name to change behaviour.

Result latency is one definition everywhere: the wall time a result row
reached the sink, minus the time the input it needed became available.
In a closed loop the whole input exists when ``execute()`` starts, so
every row is due at the start of the round; in the paced (open-loop)
workload a row is due when the event that made it emittable was
scheduled to be sent.
"""

import hashlib
import json
import math
import os
import time
from collections import Counter

from harness import percentile
from repro.api import Environment
from repro.api.stream import DataStream
from repro.connectors.sinks import TransactionalJsonlFileSink
from repro.cutty import PeriodicWindows, SessionWindows
from repro.datagen import ClickEvent, ZipfSampler
from repro.datagen.clickstream import ACTIONS
from repro.runtime.engine import EngineConfig
from repro.runtime.operators import SourceOperator
from repro.testing.seeds import derive_seed, rng_for
from repro.time.watermarks import WatermarkStrategy
from repro.windowing import SumAggregate, TumblingEventTimeWindows

import reference

#: Batched execution settings shared by the closed-loop workloads.
BATCHED = dict(batch_size=1024, elements_per_step=2048,
               channel_capacity=16384)
#: Watermark bound; 10 % of events are displaced backwards within it.
BOUND_MS = 50
DROPPED_ACTION = "settings"
#: A closed-loop row counts as delivered within the limit when its round
#: finished inside the round timeout; the paced workload has its own.
ROUND_LIMIT_S = 120.0


class Score:
    """One round's verdict: rows attempted and failed, and the latency
    summary of the rows that were delivered correctly."""

    def __init__(self, attempted, failed, p50_ms, p99_ms, within_share):
        self.attempted = attempted
        self.failed = failed
        self.p50_ms = p50_ms
        self.p99_ms = p99_ms
        self.within_share = within_share


class Job:
    """One round's program and the handles needed to read it back."""

    def __init__(self, env, records, **handles):
        self.env = env
        self.records = records
        self.handles = handles


def score_rows(expected, stamped_rows, origin, limit_s, due=None):
    """Match delivered rows against the expected multiset.

    ``stamped_rows`` is ``[(arrival_s, row)]`` in arrival order.  A row
    the reference does not (or no longer) expect is wrong or duplicated;
    an expected row never delivered is missing.  Only matched rows have
    a latency; unmatched expected rows count as over the limit.
    """
    remaining = Counter(expected)
    attempted = sum(expected.values())
    latencies = []
    unexpected = 0
    within = 0
    for arrival, row in stamped_rows:
        if remaining[row] <= 0:
            unexpected += 1
            continue
        remaining[row] -= 1
        latency = arrival - origin - (due(row) if due is not None else 0.0)
        latencies.append(latency * 1000.0)
        if latency <= limit_s:
            within += 1
    missing = sum(count for count in remaining.values() if count > 0)
    failed = max(missing, unexpected)
    if not latencies:
        return Score(attempted, max(failed, attempted), 0.0, 0.0, 0.0)
    return Score(attempted, failed, percentile(latencies, 0.50),
                 percentile(latencies, 0.99), within / attempted)


def failed_round(expected_rows):
    """A round that raised or timed out: every row failed."""
    return Score(expected_rows, expected_rows, 0.0, 0.0, 0.0)


def text_digest(lines):
    hasher = hashlib.sha256()
    hasher.update("\n".join(lines).encode("utf-8"))
    return hasher.hexdigest()[:16]


# -- inputs -------------------------------------------------------------------


def click_events(seed, stream, count, users, per_ms, late_share):
    """``count`` ClickEvent tuples in arrival order.

    Base event time advances ``per_ms`` events per millisecond; 10 % of
    the events are displaced backwards by 1..BOUND_MS (out of order but
    inside the watermark bound) and ``late_share`` of them by more than
    the bound (late: dropped when their window has already closed).
    Users follow a Zipf law.
    """
    rng = rng_for(seed, "e14", stream, "events")
    zipf = ZipfSampler(users, seed=derive_seed(seed, "e14", stream, "zipf"))
    names = ["user-%05d" % index for index in range(users)]
    random = rng.random
    randint = rng.randint
    sample = zipf.sample
    actions = len(ACTIONS)
    events = []
    for index in range(count):
        ts = index // per_ms
        draw = random()
        if draw < late_share:
            ts = max(0, ts - randint(BOUND_MS + 1, 8 * BOUND_MS))
        elif draw < 0.10:
            ts = max(0, ts - randint(1, BOUND_MS))
        events.append(ClickEvent(names[sample()],
                                 ACTIONS[int(random() * actions)], ts,
                                 index & 1023, 100 + int(random() * 9000)))
    return events


def events_digest(events):
    return text_digest(map("%s,%s,%d,%d,%d".__mod__, events))


class FieldSum(SumAggregate):
    """Sum of one tuple field."""

    def __init__(self, field):
        self._field = field

    def add(self, value, accumulator):
        return accumulator + value[self._field]


def watermarks():
    return WatermarkStrategy.for_bounded_out_of_orderness(
        lambda event: event.timestamp, BOUND_MS)


def round_denominated_interval(events):
    """A checkpoint interval that completes about ten checkpoints per
    benchmark round on the cooperative backend, whatever the host's
    speed: its clock ticks once per scheduler round and the source emits
    one step's worth of events per round.  Never below 4: a source that
    is handed a barrier every round emits nothing else."""
    source_steps = math.ceil(events / BATCHED["elements_per_step"])
    return max(4, source_steps // 11)


def keyed_window_stream(stream, size_ms):
    """The flagship operators after the source, up to the aggregate."""
    return (stream.assign_timestamps_and_watermarks(watermarks())
            .map(lambda event: (event.user, event.action, event.dwell_ms))
            .filter(lambda value: value[1] != DROPPED_ACTION)
            .key_by(lambda value: value[0])
            .window(TumblingEventTimeWindows.of(size_ms))
            .aggregate(FieldSum(2)))


# -- sinks and sources owned by the benchmark ---------------------------------


class ArrivalStampedJsonlSink(TransactionalJsonlFileSink):
    """The exactly-once JSONL sink, stamping when each row reaches it.

    Stamps go to a sidecar file at end of input because on the
    multiprocess backend the sink lives in a worker process.
    """

    def __init__(self, path):
        super().__init__(path)
        self._arrivals = []

    def open(self):
        self._arrivals = []
        super().open()

    def write(self, value):
        self._arrivals.append(time.perf_counter())
        super().write(value)

    def flush_final(self):
        super().flush_final()
        with open(self.path + ".arrivals", "w", encoding="utf-8") as handle:
            json.dump(self._arrivals, handle)


def read_stamped_file(path):
    """``[(arrival_s, row)]`` of a committed ArrivalStampedJsonlSink."""
    with open(path, "r", encoding="utf-8") as handle:
        rows = [tuple(json.loads(line)) for line in handle]
    with open(path + ".arrivals", "r", encoding="utf-8") as handle:
        arrivals = json.load(handle)
    if len(arrivals) != len(rows):
        # Fewer stamps than rows cannot be paired: treat as undelivered.
        return []
    return list(zip(arrivals, rows))


def stamping_sink(stamped_rows):
    clock = time.perf_counter
    append = stamped_rows.append
    return lambda row: append((clock(), tuple(row)))


class PacedSource(SourceOperator):
    """Open-loop load generator: emits each event when its scheduled
    offset has passed, whatever the engine is doing.

    It shares the engine's single scheduler thread, so it cannot emit
    while another task runs; how late each burst left is recorded
    (``lag_s``) and result latency is counted from the schedule, not
    from the emission, so that wait is never hidden.  When nothing is
    due it returns at once and the scheduler polls it again: sleeping
    instead let the host park the idle CPU, and the window bursts that
    followed a sleep ran up to half again as slow.
    """

    name = "paced-source"

    def __init__(self, events, due_s):
        super().__init__()
        self._events = events
        self._due_s = due_s
        self._position = 0
        self.started_s = None
        self.lag_s = []

    def emit_batch(self, source_ctx, max_records):
        now = time.perf_counter()
        if self.started_s is None:
            self.started_s = now
        elapsed = now - self.started_s
        due_s = self._due_s
        start = self._position
        limit = min(len(due_s), start + max_records)
        stop = start
        while stop < limit and due_s[stop] <= elapsed:
            stop += 1
        if stop == start:
            return True
        self.lag_s.append(elapsed - due_s[start])
        collect = source_ctx.collect
        events = self._events
        for index in range(start, stop):
            collect(events[index])
        self._position = stop
        return stop < len(due_s)

    def snapshot_state(self):
        return {"offset": self._position}

    def restore_state(self, state):
        self._position = state["offset"]


# -- the workloads ------------------------------------------------------------


class ClickStreamWorkload:
    """What the workloads whose input is one list of ClickEvents share."""

    def digest(self, events):
        return events_digest(events)

    def prefix(self, events, fraction):
        return events[:max(1, int(len(events) * fraction))]

    def records(self, events):
        return len(events)


class KeyedWindow(ClickStreamWorkload):
    """source -> watermarks -> map -> filter -> key_by -> tumbling window
    -> sum -> exactly-once JSONL sink, checkpoints on."""

    name = "keyed_window"
    why = ("the flagship job: keyed event-time windows into a 2PC sink with "
           "checkpoints on; windowing, state and timers do most of the work")
    events = 120_000
    users = 1000
    per_ms = 50
    window_ms = 1000
    late_share = 0.001
    parallelism = 2
    limit_s = ROUND_LIMIT_S

    def generate(self, seed, scale):
        return click_events(seed, "keyed_window", int(self.events * scale),
                            self.users, self.per_ms, self.late_share)

    def expect(self, events):
        sums, _, late = reference.tumbling_sums(
            events, self.window_ms, BOUND_MS, DROPPED_ACTION)
        return {"rows": reference.tumbling_rows(sums, self.window_ms),
                "lanes": reference.tumbling_order(sums, self.window_ms,
                                                  self.parallelism),
                "late_dropped": late}

    def config(self, events, scratch):
        return EngineConfig(
            checkpoint_interval_ms=round_denominated_interval(len(events)),
            checkpoint_dir=os.path.join(scratch, "checkpoints"), **BATCHED)

    def build(self, events, scratch):
        env = Environment(parallelism=self.parallelism,
                          config=self.config(events, scratch))
        path = os.path.join(scratch, "windows.jsonl")
        keyed_window_stream(
            env.from_source(lambda: events, parallelism=1, name="clicks"),
            self.window_ms).add_sink(ArrivalStampedJsonlSink(path))
        return Job(env, len(events), path=path)

    def score(self, job, expected, started_s, ended_s):
        stamped = read_stamped_file(job.handles["path"])
        score = score_rows(expected["rows"], stamped, started_s, self.limit_s)
        # The committed file must also keep each window subtask's own
        # emission order; the sink's merge of the two is the only freedom.
        lanes = [[] for _ in range(self.parallelism)]
        for _, row in stamped:
            lanes[reference.subtask_of(row[0], self.parallelism)].append(row)
        misplaced = sum(
            sum(1 for got, want in zip(lane, wanted) if got != want)
            for lane, wanted in zip(lanes, expected["lanes"]))
        score.failed = max(score.failed, misplaced)
        return score


class KeyedWindowMp2(KeyedWindow):
    """The same program and (byte-identical) inputs on two worker
    processes; checkpoints every 500 ms of wall clock."""

    name = "keyed_window_mp2"
    why = ("keyed_window on 2 worker processes: adds the exchange (partition, "
           "encode, ring/pipe, decode) and the supervisor to the same job")

    def config(self, events, scratch):
        return EngineConfig(
            backend="multiprocess", num_workers=2,
            checkpoint_interval_ms=500,
            checkpoint_dir=os.path.join(scratch, "checkpoints"), **BATCHED)


class StatelessChain:
    """sequence -> rebalance -> map -> filter -> map -> global -> sink."""

    name = "stateless_chain"
    why = ("no keys, state, windows or timers: task chains and channels do "
           "the work; the bypass for every windowing or state optimisation")
    count = 700_000
    limit_s = ROUND_LIMIT_S

    @staticmethod
    def transform(x):
        return x * 3 + 1

    @staticmethod
    def keep(y):
        return y % 4 != 0

    @staticmethod
    def finish(y):
        return y ^ 0x5BD1

    def generate(self, seed, scale):
        # The input is the integers themselves; the seed moves where the
        # sequence starts so another seed is another input.
        offset = rng_for(seed, "e14", "stateless_chain").randrange(1 << 20)
        return (offset, int(self.count * scale))

    def digest(self, inputs):
        return text_digest(["%d,%d" % inputs])

    def prefix(self, inputs, fraction):
        return (inputs[0], max(1, int(inputs[1] * fraction)))

    def records(self, inputs):
        return inputs[1]

    def expect(self, inputs):
        offset, count = inputs
        rows, total, folded = reference.stateless_digest(
            count, lambda x: self.transform(x + offset), self.keep,
            self.finish)
        return {"rows": rows, "sum": total, "xor": folded}

    def build(self, inputs, scratch):
        offset, count = inputs
        out = []
        profile = []
        clock = time.perf_counter

        def sample(engine, rounds):
            profile.append((clock(), len(out)))
            return False

        env = Environment(parallelism=2,
                          config=EngineConfig(cancel_hook=sample, **BATCHED))
        (env.generate_sequence(offset, offset + count)
         .rebalance()
         .map(self.transform)
         .filter(self.keep)
         .map(self.finish)
         .global_()
         .add_sink(out.append, parallelism=1))
        return Job(env, count, out=out, profile=profile)

    def score(self, job, expected, started_s, ended_s):
        out = job.handles["out"]
        folded = 0
        for value in out:
            folded ^= value
        attempted = expected["rows"]
        if (len(out), sum(out), folded) != (attempted, expected["sum"],
                                            expected["xor"]):
            return Score(attempted, max(1, abs(len(out) - attempted)),
                         0.0, 0.0, 0.0)
        # Rows are sampled once per scheduler round, not stamped one by
        # one: the p-th row arrived by the first sample that counts it.
        profile = job.handles["profile"] + [(ended_s, len(out))]

        def arrival_ms(share):
            needed = max(1, math.ceil(share * attempted))
            for stamp, delivered in profile:
                if delivered >= needed:
                    return (stamp - started_s) * 1000.0
            return (ended_s - started_s) * 1000.0

        within = 1.0 if ended_s - started_s <= self.limit_s else 0.0
        return Score(attempted, 0, arrival_ms(0.50), arrival_ms(0.99), within)


class PacedWindow:
    """The keyed_window operators driven open-loop at a fixed rate."""

    name = "paced_window"
    why = ("the flagship operators at a fixed 10k events/s (about 40% of "
           "scalar capacity): throughput bought with buffering or coarser "
           "watermarks shows here as result latency")
    rate_per_s = 10_000
    seconds = 1.0
    users = 4000
    window_ms = 250
    late_share = 0.001
    limit_s = 0.250

    def generate(self, seed, scale):
        count = max(self.rate_per_s // 10,
                    int(self.rate_per_s * self.seconds * scale))
        events = click_events(seed, "paced_window", count, self.users,
                              self.rate_per_s // 1000, self.late_share)
        due_s = [index / self.rate_per_s for index in range(count)]
        return (events, due_s)

    def digest(self, inputs):
        return events_digest(inputs[0])

    def prefix(self, inputs, fraction):
        keep = max(1, int(len(inputs[0]) * fraction))
        return (inputs[0][:keep], inputs[1][:keep])

    def records(self, inputs):
        return len(inputs[0])

    def expect(self, inputs):
        events, due_s = inputs
        sums, enabling, late = reference.tumbling_sums(
            events, self.window_ms, BOUND_MS, DROPPED_ACTION)
        rows = Counter((user, start + self.window_ms, total)
                       for (user, start), total in sums.items())
        return {"rows": rows, "late_dropped": late,
                "due_s": {end: due_s[index]
                          for end, index in enabling.items()}}

    def build(self, inputs, scratch):
        events, due_s = inputs
        sources = []
        stamped = []

        def make_source():
            sources.append(PacedSource(events, due_s))
            return sources[-1]

        env = Environment(parallelism=2, config=EngineConfig())
        node = env.graph.new_node("paced-clicks", make_source, 1,
                                  is_source=True)
        clock = time.perf_counter
        append = stamped.append
        keyed_window_stream(DataStream(env, node), self.window_ms).add_sink(
            lambda result: append((clock(), (result.key, result.window.end,
                                             result.value))),
            parallelism=1)
        return Job(env, len(events), sources=sources, stamped=stamped)

    def score(self, job, expected, started_s, ended_s):
        source = job.handles["sources"][-1]
        due_s = expected["due_s"]
        return score_rows(expected["rows"], job.handles["stamped"],
                          source.started_s, self.limit_s,
                          due=lambda row: due_s[row[1]])


class SharedWindows(ClickStreamWorkload):
    """source -> watermarks -> key_by -> reorder -> four Cutty queries."""

    name = "shared_windows"
    why = ("the same windowing feature through Cutty and the reorder stage "
           "instead of WindowOperator: a gain for one path that costs the "
           "other shows")
    events = 40_000
    users = 200
    per_ms = 10
    periodic = {"p1s": (1000, 100), "p5s": (5000, 500),
                "p30s": (30000, 1000)}
    sessions = {"idle200": 200}
    limit_s = ROUND_LIMIT_S

    def generate(self, seed, scale):
        return click_events(seed, "shared_windows", int(self.events * scale),
                            self.users, self.per_ms, 0.0)

    def expect(self, events):
        return {"rows": reference.shared_window_rows(
            events, self.periodic, self.sessions)}

    def build(self, events, scratch):
        env = Environment(parallelism=2, config=EngineConfig(
            checkpoint_interval_ms=round_denominated_interval(len(events)),
            checkpoint_dir=os.path.join(scratch, "checkpoints"), **BATCHED))
        queries = {}
        for query_id, (size, slide) in self.periodic.items():
            queries[query_id] = (
                lambda size=size, slide=slide: PeriodicWindows(size, slide))
        for query_id, gap in self.sessions.items():
            queries[query_id] = lambda gap=gap: SessionWindows(gap)
        stamped = []
        (env.from_source(lambda: events, parallelism=1, name="clicks")
         .assign_timestamps_and_watermarks(watermarks())
         .key_by(lambda event: event.user)
         .shared_windows(lambda: FieldSum(4), queries, reorder=True)
         .add_sink(stamping_sink(stamped), parallelism=1))
        return Job(env, len(events), stamped=stamped)

    def score(self, job, expected, started_s, ended_s):
        return score_rows(expected["rows"], job.handles["stamped"],
                          started_s, self.limit_s)


class RestJoinAgg:
    """Data at rest: filter -> map -> group/reduce -> join -> group/reduce."""

    name = "rest_join_agg"
    why = ("the batch half of the paper's title: blocking group and join "
           "operators on the same runtime; shows a streaming gain that "
           "costs data at rest")
    clicks = 300_000
    clicks_per_user = 50
    segments = 64
    limit_s = ROUND_LIMIT_S

    def generate(self, seed, scale):
        rng = rng_for(seed, "e14", "rest_join_agg", "rows")
        clicks = int(self.clicks * scale)
        user_count = max(self.segments, clicks // self.clicks_per_user)
        users = [("user-%05d" % index,
                  "segment-%02d" % rng.randrange(self.segments),
                  rng.randrange(18, 80)) for index in range(user_count)]
        zipf = ZipfSampler(user_count, seed=derive_seed(
            seed, "e14", "rest_join_agg", "zipf"))
        random = rng.random
        sample = zipf.sample
        actions = len(ACTIONS)
        rows = [(users[sample()][0], ACTIONS[int(random() * actions)],
                 100 + int(random() * 9000)) for _ in range(clicks)]
        return (rows, users)

    def digest(self, inputs):
        rows, users = inputs
        return text_digest(list(map("%s,%s,%d".__mod__, rows))
                           + list(map("%s,%s,%d".__mod__, users)))

    def prefix(self, inputs, fraction):
        rows, users = inputs
        return (rows[:max(1, int(len(rows) * fraction))], users)

    def records(self, inputs):
        return len(inputs[0]) + len(inputs[1])

    def expect(self, inputs):
        return {"rows": reference.segment_totals(inputs[0], inputs[1],
                                                 DROPPED_ACTION)}

    def build(self, inputs, scratch):
        rows, users = inputs
        env = Environment(parallelism=2, config=EngineConfig(**BATCHED))
        per_user = (env.from_bounded(rows, name="clicks")
                    .filter(lambda row: row[1] != DROPPED_ACTION)
                    .map(lambda row: (row[0], row[2], 1))
                    .group_by(lambda value: value[0])
                    .reduce(lambda a, b: (a[0], a[1] + b[1], a[2] + b[2])))
        result = (per_user.join(env.from_bounded(users, name="users"),
                                lambda value: value[0], lambda user: user[0],
                                lambda value, user: (user[1], value[1],
                                                     value[2]))
                  .group_by(lambda value: value[0])
                  .reduce(lambda a, b: (a[0], a[1] + b[1], a[2] + b[2]))
                  .collect())
        return Job(env, len(rows) + len(users), result=result)

    def score(self, job, expected, started_s, ended_s):
        # collect() hands the rows over when execute() returns.
        stamped = [(ended_s, tuple(row))
                   for row in job.handles["result"].get()]
        return score_rows(expected["rows"], stamped, started_s, self.limit_s)


WORKLOADS = [KeyedWindow(), KeyedWindowMp2(), StatelessChain(),
             PacedWindow(), SharedWindows(), RestJoinAgg()]
