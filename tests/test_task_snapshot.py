"""The snapshot boundary: a :class:`TaskSnapshot` is serialised once, at
the barrier, and is the only copy a checkpoint takes.

Operators and backends hand the task views of their live state; the
snapshot's payload is what keeps the checkpoint apart from the state
that keeps running, and every decode hands a restore fresh objects to
own.  The payload travels unchanged through the durable file and a
worker's ack frame, and state that does not pickle fails at the barrier
with the subtask and chain position named.
"""

import os
import pickle

import pytest

from repro.api import Environment
from repro.observability import checkpoint_state_entries
from repro.runtime.engine import EngineConfig
from repro.runtime.multiprocess import _FrameReader, _FrameWriter
from repro.runtime.operators import ProcessFunction
from repro.state import (
    CompletedCheckpoint,
    DurableCheckpointStore,
    TaskSnapshot,
    ValueStateDescriptor,
)
from repro.state.savepoint import savepoint_from_completed
from repro.windowing import CountAggregate, TumblingEventTimeWindows


def live_parts():
    keyed = {"0": {"count": {"a": [1, 2], "b": [3]}}}
    operator = {"0": {"pending": {1: ["x"]}, "offset": 7}}
    timers = {"0": {"event_time": [(10, "a", None)], "processing_time": []}}
    partitioners = {"0": {"next": 3}}
    return keyed, operator, timers, partitioners


def test_each_decode_returns_equal_fresh_objects():
    parts = live_parts()
    snapshot = TaskSnapshot(("1-op", 0), *parts)
    first, second = snapshot.decode(), snapshot.decode()
    assert tuple(first) == tuple(second) == parts
    assert first.keyed_state is not second.keyed_state
    assert (first.keyed_state["0"]["count"]["a"]
            is not second.keyed_state["0"]["count"]["a"])
    assert first.operator_state["0"]["pending"] is not parts[1]["0"]["pending"]
    # A restore owns what it decoded: mutating it leaves the snapshot whole.
    first.keyed_state["0"]["count"]["a"].append(99)
    assert snapshot.keyed_state == parts[0]


def test_mutating_live_state_after_construction_is_invisible():
    keyed, operator, timers, partitioners = live_parts()
    snapshot = TaskSnapshot(("1-op", 0), keyed, operator, timers,
                            partitioners)
    keyed["0"]["count"]["a"].append(4)
    keyed["0"]["count"]["c"] = [5]
    operator["0"]["pending"][2] = ["y"]
    timers["0"]["event_time"].clear()
    partitioners["0"]["next"] = 4
    assert snapshot.decode() == live_parts()


def test_durable_file_and_ack_frame_carry_the_payload_unchanged(tmp_path):
    snapshot = TaskSnapshot(("1-op", 0), *live_parts())
    store = DurableCheckpointStore(str(tmp_path))
    store.add(CompletedCheckpoint(1, {snapshot.subtask: snapshot}, 0, 1))
    read = store.load_verified(1).snapshot_for(snapshot.subtask)
    assert read.payload == snapshot.payload
    assert read.decode() == live_parts()

    read_fd, write_fd = os.pipe()
    reader = _FrameReader(read_fd, peer="control pipe worker 0")
    writer = _FrameWriter(write_fd)
    writer.send(("ack", 1, snapshot))
    writer.close()
    [(kind, checkpoint_id, acked)] = reader.read_available()
    reader.close()
    assert (kind, checkpoint_id) == ("ack", 1)
    assert acked.payload == snapshot.payload


class RemembersALambda(ProcessFunction):
    def open(self, ctx):
        self.last = ctx.get_state(ValueStateDescriptor("last"))

    def process_element(self, value, ctx):
        self.last.update(lambda: value)
        ctx.emit(value)


def test_state_that_does_not_pickle_fails_at_the_barrier_named():
    env = Environment(parallelism=2, config=EngineConfig(
        checkpoint_interval_ms=5, elements_per_step=4))
    (env.from_collection(range(400))
        .key_by(lambda value: value % 3)
        .process(RemembersALambda(), name="remember")
        .collect())
    with pytest.raises(pickle.PicklingError) as excinfo:
        env.execute()
    message = str(excinfo.value)
    assert "the keyed state of subtask 1-remember#" in message
    assert "at chain position 0 (operator 'remember')" in message
    assert "lambda" in message


def test_every_consumer_decodes_a_snapshot_once(monkeypatch):
    data = [(("k%d" % (i % 5), 1), i * 3) for i in range(600)]
    env = Environment(parallelism=2, config=EngineConfig(
        checkpoint_interval_ms=5, elements_per_step=4,
        cancel_hook=lambda engine, rounds: rounds >= 40))
    (env.from_source(lambda: data, timestamped=True, parallelism=2,
                     name="source")
        .key_by(lambda v: v[0])
        .window(TumblingEventTimeWindows.of(300))
        .aggregate(CountAggregate(), name="count")
        .collect())
    assert env.execute().cancelled
    engine = env.last_engine
    completed = engine.checkpoint_store.latest
    assert completed is not None

    decodes = []
    decode = TaskSnapshot.decode

    def counting_decode(self):
        decodes.append(self.subtask)
        return decode(self)

    monkeypatch.setattr(TaskSnapshot, "decode", counting_decode)
    savepoint = savepoint_from_completed(completed, engine.job_graph,
                                         RuntimeError)
    assert sorted(decodes) == sorted(completed.snapshots)
    del decodes[:]
    checkpoint_state_entries(completed)
    assert sorted(decodes) == sorted(completed.snapshots)
    del decodes[:]
    restore = savepoint.task_snapshots(engine.job_graph)
    assert decodes == []
    for task in engine.tasks:
        task.restore(restore[task.subtask_id])
    assert sorted(decodes) == sorted(restore)
