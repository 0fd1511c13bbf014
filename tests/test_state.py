"""Unit tests for keyed state descriptors, handles and the backend."""

import pytest

from repro.state import (
    AggregatingStateDescriptor,
    KeyedStateBackend,
    ListStateDescriptor,
    MapStateDescriptor,
    ReducingStateDescriptor,
    TaskSnapshot,
    ValueStateDescriptor,
)
from repro.windowing.aggregates import AvgAggregate


def checkpointed(backend):
    """The backend's tables as a checkpoint keeps them: through the
    :class:`TaskSnapshot` the task builds at the barrier."""
    return TaskSnapshot(("1-op", 0), backend.snapshot())


@pytest.fixture
def backend():
    return KeyedStateBackend()


class TestValueState:
    def test_scoped_by_current_key(self, backend):
        state = backend.get_state(ValueStateDescriptor("v", default=0))
        backend.set_current_key("a")
        state.update(1)
        backend.set_current_key("b")
        assert state.value() == 0  # default for unseen key
        state.update(2)
        backend.set_current_key("a")
        assert state.value() == 1

    def test_clear(self, backend):
        state = backend.get_state(ValueStateDescriptor("v", default=-1))
        backend.set_current_key("a")
        state.update(5)
        state.clear()
        assert state.value() == -1

    def test_access_without_key_raises(self, backend):
        state = backend.get_state(ValueStateDescriptor("v"))
        with pytest.raises(RuntimeError):
            state.value()


class TestListState:
    def test_append_and_read(self, backend):
        state = backend.get_state(ListStateDescriptor("l"))
        backend.set_current_key("k")
        state.add(1)
        state.add(2)
        assert state.get() == [1, 2]

    def test_update_replaces(self, backend):
        state = backend.get_state(ListStateDescriptor("l"))
        backend.set_current_key("k")
        state.add(1)
        state.update([9])
        assert state.get() == [9]


class TestMapState:
    def test_put_get_remove(self, backend):
        state = backend.get_state(MapStateDescriptor("m"))
        backend.set_current_key("k")
        state.put("x", 1)
        assert state.get("x") == 1
        assert state.contains("x")
        state.remove("x")
        assert not state.contains("x")
        assert state.get("x", "default") == "default"

    def test_keys_and_items(self, backend):
        state = backend.get_state(MapStateDescriptor("m"))
        backend.set_current_key("k")
        state.put("a", 1)
        state.put("b", 2)
        assert sorted(state.keys()) == ["a", "b"]
        assert dict(state.items()) == {"a": 1, "b": 2}

    def test_is_empty(self, backend):
        state = backend.get_state(MapStateDescriptor("m"))
        backend.set_current_key("k")
        assert state.is_empty()
        state.put("a", 1)
        assert not state.is_empty()

    def test_emptied_map_gives_its_slot_back(self, backend):
        state = backend.get_state(MapStateDescriptor("m"))
        backend.set_current_key("k")
        state.put("a", 1)
        state.put("b", 2)
        state.remove("a")
        assert backend.num_entries() == 1
        state.remove("b")
        assert backend.num_entries() == 0
        assert backend.snapshot() == {"m": {}}

    def test_reads_and_remove_create_no_slot(self, backend):
        state = backend.get_state(MapStateDescriptor("m"))
        backend.set_current_key("k")
        state.remove("x")
        assert state.get("x") is None
        assert not state.contains("x")
        assert list(state.keys()) == [] and list(state.items()) == []
        assert state.is_empty()
        assert state.mapping() is None
        assert backend.num_entries() == 0

    def test_mapping_is_the_live_dict(self, backend):
        state = backend.get_state(MapStateDescriptor("m"))
        backend.set_current_key("k")
        entries = state.mapping(create=True)
        assert entries == {} and state.mapping() is entries
        entries["a"] = 1
        assert state.get("a") == 1
        state.put("b", 2)
        assert entries == {"a": 1, "b": 2}
        backend.set_current_key("other")
        assert state.mapping() is None
        backend.clear_current_key()
        with pytest.raises(RuntimeError):
            state.mapping()


class TestReducingState:
    def test_folds_values(self, backend):
        state = backend.get_state(
            ReducingStateDescriptor("r", lambda a, b: a + b))
        backend.set_current_key("k")
        state.add(3)
        state.add(4)
        assert state.get() == 7


class TestAggregatingState:
    def test_accumulates_through_aggregate_function(self, backend):
        state = backend.get_state(AggregatingStateDescriptor("a",
                                                             AvgAggregate()))
        backend.set_current_key("k")
        state.add(2)
        state.add(4)
        assert state.get() == pytest.approx(3.0)

    def test_get_on_empty_returns_none(self, backend):
        state = backend.get_state(AggregatingStateDescriptor("a",
                                                             AvgAggregate()))
        backend.set_current_key("k")
        assert state.get() is None


class TestBackend:
    def test_conflicting_kind_rejected(self, backend):
        backend.get_state(ValueStateDescriptor("s"))
        with pytest.raises(ValueError):
            backend.get_state(ListStateDescriptor("s"))

    def test_snapshot_is_deep(self, backend):
        state = backend.get_state(ListStateDescriptor("l"))
        backend.set_current_key("k")
        state.add(1)
        snapshot = checkpointed(backend)
        state.add(2)
        assert snapshot.keyed_state["l"]["k"] == [1]

    def test_restore_roundtrip(self, backend):
        state = backend.get_state(ValueStateDescriptor("v"))
        backend.set_current_key("k")
        state.update(42)
        snapshot = backend.snapshot()
        fresh = KeyedStateBackend()
        fresh_state = fresh.get_state(ValueStateDescriptor("v"))
        fresh.restore(snapshot)
        fresh.set_current_key("k")
        assert fresh_state.value() == 42

    def test_restore_and_clear_keep_existing_handles_valid(self, backend):
        # Handles hold on to their table, so both must work in place --
        # including for a state the snapshot has never heard of.
        values = backend.get_state(ValueStateDescriptor("v"))
        maps = backend.get_state(MapStateDescriptor("m"))
        backend.set_current_key("k")
        values.update(1)
        snapshot = checkpointed(backend)
        values.update(2)
        maps.put("a", 1)
        backend.restore(snapshot.keyed_state)
        assert values.value() == 1
        assert maps.mapping() is None
        maps.put("b", 2)
        assert backend.snapshot() == {"v": {"k": 1}, "m": {"k": {"b": 2}}}
        backend.restore({})
        assert values.value() is None and backend.num_entries() == 0
        values.update(3)
        backend.clear_all()
        assert values.value() is None
        values.update(4)
        assert backend.snapshot()["v"] == {"k": 4}

    def test_num_entries(self, backend):
        state = backend.get_state(ValueStateDescriptor("v"))
        for key in ("a", "b", "c"):
            backend.set_current_key(key)
            state.update(0)
        assert backend.num_entries() == 3

    def test_empty_state_name_rejected(self):
        with pytest.raises(ValueError):
            ValueStateDescriptor("")
