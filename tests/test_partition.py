"""Unit tests for partitioners and the stable key hash."""

import json
import os
import struct
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from repro.runtime import partition
from repro.runtime.channels import Channel
from repro.runtime.columnar import batch_to_columnar
from repro.runtime.elements import Record
from repro.runtime.partition import (
    BroadcastPartitioner,
    ForwardPartitioner,
    GlobalPartitioner,
    HashPartitioner,
    RebalancePartitioner,
    hash_key,
    owner_of_key,
)
from repro.runtime.task import ColumnRun, OutputEdge


class TestHashKey:
    def test_stable_for_strings(self):
        # FNV-1a reference value stability (guards against PYTHONHASHSEED).
        assert hash_key("user-42") == hash_key("user-42")
        assert hash_key("a") != hash_key("b")

    def test_bytes_and_str_agree(self):
        assert hash_key("abc") == hash_key(b"abc")

    def test_tuples(self):
        assert hash_key(("a", 1)) == hash_key(("a", 1))
        assert hash_key(("a", 1)) != hash_key(("a", 2))

    def test_integers_pass_through(self):
        assert hash_key(7) == hash(7)

    def test_numeric_equality_co_locates(self):
        # True == 1 == 1.0 are one dict key; keyed state placement must
        # agree with Python equality or rescaled state would split.
        assert hash_key(True) == hash_key(1) == hash_key(1.0)
        assert hash_key(False) == hash_key(0) == hash_key(-0.0)
        assert hash_key(2.0) == hash_key(2)
        assert hash_key(-3) == hash_key(-3.0)

    def test_nan_and_none_are_fixed(self):
        assert hash_key(float("nan")) == hash_key(float("nan"))
        assert hash_key(None) == hash_key(None)
        assert hash_key(None) != hash_key(float("nan"))

    def test_identity_hashed_objects_rejected(self):
        class Opaque:
            pass

        with pytest.raises(TypeError, match="Opaque"):
            hash_key(Opaque())
        with pytest.raises(TypeError, match="object"):
            hash_key(object())

    def test_custom_stable_hash_is_trusted(self):
        class StableKey:
            def __init__(self, name):
                self.name = name

            def __hash__(self):
                return hash_key(self.name)

            def __eq__(self, other):
                return self.name == other.name

        # Trusted (no TypeError) and deterministic across instances;
        # builtin hash() may fold the digest, so only stability holds.
        assert hash_key(StableKey("a")) == hash_key(StableKey("a"))
        assert hash_key(StableKey("a")) != hash_key(StableKey("b"))


#: Key battery evaluated inside each child interpreter: every supported
#: encoding branch (None, str incl. non-ASCII, bytes, bool, small and
#: >64-bit ints, integral/fractional/signed-zero/inf/NaN floats, nested
#: tuples).  Kept as source text so both subprocesses build identical
#: values without pickling anything between them.
_KEY_BATTERY_SRC = """[
    None, "", "user-42", "h\\u00e9llo w\\u00f6rld", "a" * 300,
    b"", b"\\x00\\xff\\x7f", 0, 1, -1, 7, -7, 2**63, 2**80, -(2**80),
    True, False, 0.0, -0.0, 2.0, -3.0, 3.14159, -2.71828,
    float("inf"), float("-inf"), float("nan"),
    (), ("a", 1), ("a", 2), (("nested", 2.0), None, b"x"),
]"""


def _hash_battery_in_subprocess(hashseed):
    """Run ``hash_key`` over the battery in a fresh interpreter whose
    builtin ``hash`` is salted with ``hashseed``."""
    script = (
        "import json, sys\n"
        "from repro.runtime.partition import hash_key\n"
        "keys = " + _KEY_BATTERY_SRC + "\n"
        "print(json.dumps([hash_key(k) for k in keys]))\n")
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    repo_src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestHashKeyCrossInterpreter:
    """The regression this PR exists for: digests must not depend on the
    interpreter's per-run hash salt (PYTHONHASHSEED), or keyed state
    lands on different subtasks after every restart and the multiprocess
    workers disagree with each other about routing."""

    def test_digests_identical_across_interpreter_runs(self):
        first = _hash_battery_in_subprocess("0")
        second = _hash_battery_in_subprocess("12345")
        assert first == second

    def test_parent_process_agrees_with_children(self):
        keys = eval(_KEY_BATTERY_SRC)  # same literal the children use
        local = [hash_key(k) for k in keys]
        assert local == _hash_battery_in_subprocess("99")

    def test_a_key_has_one_owner_everywhere(self):
        # Routing, state placement and savepoint rescale all ask
        # ``owner_of_key``; it is the digest modulo the subtask count.
        keys = eval(_KEY_BATTERY_SRC)
        for parallelism in (1, 2, 3, 8):
            owners = [owner_of_key(key, parallelism) for key in keys]
            assert owners == [hash_key(key) % parallelism for key in keys]
            select = HashPartitioner(lambda value: value).select
            assert owners == [select(Record(key), parallelism, 0)[0]
                              for key in keys]


def _loop_fnv1a(data):
    """FNV-1a written out again: the reference the memo is held to."""
    value = 0xCBF29CE484222325
    for byte in data:
        value = ((value ^ byte) * 0x100000001B3) % 2**64
    return value


def _unmemoised_hash_key(key):
    """``hash_key`` as documented, with nothing remembered between
    calls (NaN and None digests are read from the module: they are
    constants, not computations)."""
    if key is None:
        return partition._NONE_DIGEST
    if isinstance(key, str):
        return _loop_fnv1a(key.encode("utf-8"))
    if isinstance(key, bytes):
        return _loop_fnv1a(key)
    if isinstance(key, (bool, int)):
        return int(key) % 2**64
    if isinstance(key, float):
        if key != key:
            return partition._NAN_DIGEST
        if key not in (float("inf"), float("-inf")) and key.is_integer():
            return int(key) % 2**64
        return _loop_fnv1a(struct.pack("<d", key))
    if isinstance(key, tuple):
        value = 0x345678
        for part in key:
            value = ((value * 1000003) ^ _unmemoised_hash_key(part)) % 2**64
        return value
    return hash(key)


class Tag(str):
    """A ``str`` subclass: hashed like its text, never remembered."""


@pytest.fixture
def empty_memo():
    partition._TEXT_DIGESTS.clear()
    yield partition._TEXT_DIGESTS
    partition._TEXT_DIGESTS.clear()


class TestTextDigestMemo:
    """``str``/``bytes`` digests are computed once per distinct key; the
    memo may change what a digest costs, never what it is."""

    def test_memoised_digests_equal_the_unmemoised_ones(self, empty_memo):
        keys = eval(_KEY_BATTERY_SRC) + [Tag("user-42"), ("user-42", Tag("x"))]
        expected = [_unmemoised_hash_key(key) for key in keys]
        assert [hash_key(key) for key in keys] == expected   # misses
        assert [hash_key(key) for key in keys] == expected   # hits
        assert empty_memo, "no text key was remembered"

    def test_text_is_hashed_once_per_distinct_key(self, empty_memo,
                                                  monkeypatch):
        loops = []
        fnv1a = partition._fnv1a
        monkeypatch.setattr(partition, "_fnv1a",
                            lambda data: loops.append(data) or fnv1a(data))
        keys = ["user-%d" % (index % 7) for index in range(100)]
        digests = [hash_key(key) for key in keys]
        assert len(loops) == 7
        assert digests == [_loop_fnv1a(key.encode()) for key in keys]
        # Through the tuple recursion as well.
        hash_key(("user-3", b"user-3"))
        assert loops[7:] == [b"user-3"]      # the bytes key is new

    def test_str_and_bytes_of_the_same_content_do_not_alias(self, empty_memo):
        assert hash_key("abc") == hash_key(b"abc") == _loop_fnv1a(b"abc")
        assert hash_key("h\u00e9") == _loop_fnv1a("h\u00e9".encode("utf-8"))
        assert set(map(type, empty_memo)) == {str, bytes}
        assert len(empty_memo) == 3

    def test_only_exact_types_are_remembered(self, empty_memo):
        assert hash_key(Tag("abc")) == _loop_fnv1a(b"abc")
        assert not empty_memo
        hash_key("abc")
        assert [type(key) for key in empty_memo] == [str]

    def test_more_keys_than_the_bound(self, empty_memo, monkeypatch):
        monkeypatch.setattr(partition, "_TEXT_DIGESTS_BOUND", 64)
        keys = ["key-%d" % index for index in range(1000)]
        for _ in range(2):
            for key in keys:
                assert hash_key(key) == _loop_fnv1a(key.encode())
                assert len(empty_memo) <= 64

    def test_long_keys_are_not_held(self, empty_memo):
        long_key = "k" * (partition._MEMOISED_TEXT_LEN + 1)
        assert hash_key(long_key) == _loop_fnv1a(long_key.encode())
        assert not empty_memo

    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0), (1, 2, 0)])
    def test_equal_numbers_of_other_types_keep_their_digests(self, empty_memo,
                                                             order):
        # One dict key, not one digest -- today and with the memo: a
        # route remembered per dict key would hand all three the digest
        # of whichever arrived first.
        halves = [0.5, Fraction(1, 2), Decimal("0.5")]
        assert len({0.5: None, Fraction(1, 2): None,
                    Decimal("0.5"): None}) == 1
        expected = [_loop_fnv1a(struct.pack("<d", 0.5)),
                    hash(Fraction(1, 2)), hash(Decimal("0.5"))]
        assert expected[0] != expected[1]
        got = {}
        for index in order:
            got[index] = hash_key(halves[index])
        assert [got[index] for index in range(3)] == expected
        assert not empty_memo


class TestForward:
    def test_routes_to_same_index(self):
        partitioner = ForwardPartitioner()
        assert partitioner.select(Record(1), 4, 2) == (2,)
        assert partitioner.is_pointwise


class TestHash:
    def test_same_key_same_channel(self):
        partitioner = HashPartitioner(lambda v: v["user"])
        record_a = Record({"user": "u1"})
        record_b = Record({"user": "u1"})
        assert (partitioner.select(record_a, 8, 0)
                == partitioner.select(record_b, 8, 3))
        assert not partitioner.is_pointwise

    def test_select_does_not_mutate_record(self):
        partitioner = HashPartitioner(lambda v: v)
        record = Record("k")
        partitioner.select(record, 4, 0)
        assert record.key is None

    def test_distributes_across_channels(self):
        partitioner = HashPartitioner(lambda v: v)
        channels = {partitioner.select(Record("key-%d" % i), 4, 0)[0]
                    for i in range(100)}
        assert len(channels) == 4  # all channels used for 100 distinct keys


class TestRebalance:
    def test_round_robin(self):
        partitioner = RebalancePartitioner()
        selections = [partitioner.select(Record(i), 3, 0)[0] for i in range(6)]
        assert selections == [0, 1, 2, 0, 1, 2]

    def test_clone_is_independent(self):
        partitioner = RebalancePartitioner()
        partitioner.select(Record(0), 3, 0)
        clone = partitioner.clone()
        assert clone is not partitioner
        assert clone.select(Record(0), 3, 0) == (0,)

    def test_cursor_snapshot_and_restore(self):
        partitioner = RebalancePartitioner()
        for i in range(5):
            partitioner.select(Record(i), 3, 0)
        state = partitioner.snapshot_state()
        assert state == {"next": 5}
        # A few more selections after the cut, then roll back.
        partitioner.select(Record(9), 3, 0)
        fresh = RebalancePartitioner()
        fresh.restore_state(state)
        assert fresh.select(Record(0), 3, 0) == (5 % 3,)

    def test_advance_reserves_batch_slots(self):
        partitioner = RebalancePartitioner()
        cursor = partitioner.advance(4)
        assert cursor == 0
        assert partitioner.select(Record(0), 3, 0) == (4 % 3,)


class TestBroadcast:
    def test_all_channels(self):
        partitioner = BroadcastPartitioner()
        assert partitioner.select(Record(1), 3, 0) == (0, 1, 2)


class TestGlobal:
    def test_always_channel_zero(self):
        partitioner = GlobalPartitioner()
        assert partitioner.select(Record(1), 5, 4) == (0,)


#: Every route an output edge can take: (partitioner, channels, upstream
#: subtask index, whether a batch travels whole).
EDGE_ROUTES = {
    "forward": (ForwardPartitioner, 3, 2, True),
    "global": (GlobalPartitioner, 3, 1, True),
    "broadcast": (BroadcastPartitioner, 3, 0, True),
    "rebalance-1": (RebalancePartitioner, 1, 0, True),
    "rebalance-3": (RebalancePartitioner, 3, 0, False),
    "hash": (lambda: HashPartitioner(lambda value: value[0]), 3, 0, False),
}


class TestOutputEdgeRoutes:
    """One routing decision per edge: a run of records reaches the same
    channels in the same order, and leaves the same round-robin cursor
    behind, whether it is emitted record by record, as a row batch or
    as columns (a columnar batch travels a whole-batch route as it is;
    every other route, and a ``ColumnRun``, builds its rows at the
    edge)."""

    RUNS = [[Record(("k%d" % (i % 4), i), i, key="k%d" % (i % 4))
             for i in range(start, stop)]
            for start, stop in ((0, 5), (5, 6), (6, 13))]

    @staticmethod
    def route(name, emit):
        make_partitioner, count, subtask_index, _ = EDGE_ROUTES[name]
        channels = [Channel("out-%d" % index, capacity=1 << 30)
                    for index in range(count)]
        edge = OutputEdge(make_partitioner(), channels, subtask_index)
        for run in TestOutputEdgeRoutes.RUNS:
            emit(edge, run)
        delivered = []
        for channel in channels:
            rows = []
            for element in channel._queue:
                rows.extend(element.records if element.is_batch
                            else [element])
            delivered.append([(r.value, r.timestamp, r.key) for r in rows])
        return edge, delivered, edge.partitioner.snapshot_state()

    @pytest.mark.parametrize("name", sorted(EDGE_ROUTES))
    def test_record_batch_and_columnar_emission_agree(self, name):
        whole = EDGE_ROUTES[name][3]
        _, scalar, scalar_cursor = self.route(
            name, lambda edge, run: [edge.emit_record(r) for r in run])
        edge, batched, batched_cursor = self.route(
            name, lambda edge, run: edge.emit_batch(run))
        assert batched == scalar and any(scalar)
        assert batched_cursor == scalar_cursor
        if name.startswith("rebalance"):
            assert scalar_cursor == {"next": 13}
        for as_columns in (batch_to_columnar, lambda run: ColumnRun(
                [r.value for r in run], [r.timestamp for r in run],
                [r.key for r in run])):
            edge, columnar, columnar_cursor = self.route(
                name, lambda edge, run: edge.emit_columnar(as_columns(run)))
            assert columnar == scalar
            assert columnar_cursor == scalar_cursor
            assert any(element.is_columnar for channel in edge.channels
                       for element in channel._queue) is (
                whole and as_columns is batch_to_columnar)

    def test_a_whole_batch_is_copied_per_channel(self):
        # The caller's buffer is shared across edges, and chaos carves
        # records out of a queued row batch in place.
        edge, _, _ = self.route("broadcast",
                                lambda edge, run: edge.emit_batch(run))
        first = [channel._queue[0].records for channel in edge.channels]
        assert first[0] == first[1] == self.RUNS[0]
        assert first[0] is not first[1] and first[0] is not self.RUNS[0]
