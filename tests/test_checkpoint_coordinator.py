"""Unit tests for the checkpoint coordinator (fake clock).

The coordinator is pure policy over a clock callable and a ``send``
callback, so cadence, acks, aborts and the failure tolerance are driven
here with explicit timestamps -- no engine, no tasks, no processes.
Both backends tick this same object; what they differ in is only what
they pass as clock and ``send``.
"""

import os

from repro.runtime.engine import EngineConfig
from repro.state.checkpoint import CheckpointCoordinator, TaskSnapshot

SRC = ("0-source", 0)
MAP = ("1-map", 0)
SINK = ("2-sink", 0)
NONE_FINISHED = frozenset()


class Harness:
    def __init__(self, **config):
        config.setdefault("checkpoint_interval_ms", 10)
        self.now = 0
        self.sent = []
        self.heard = []
        self.coordinator = CheckpointCoordinator(
            EngineConfig(**config), lambda: self.now,
            lambda kind, checkpoint_id: self.sent.append(
                (kind, checkpoint_id)),
            subtasks=[SRC, MAP, SINK], sources=[SRC], listener=self)

    # the listener protocol (RuntimeObservability implements the same)
    def on_checkpoint_triggered(self, checkpoint_id, participants):
        self.heard.append(("triggered", checkpoint_id, participants))

    def on_checkpoint_completed(self, completed):
        self.heard.append(("completed", completed.checkpoint_id))

    def on_checkpoint_aborted(self, checkpoint_id, reason):
        self.heard.append(("aborted", checkpoint_id, reason))

    def tick(self, at, finished=NONE_FINISHED):
        self.now = at
        return self.coordinator.tick(finished)

    def ack(self, checkpoint_id, *subtasks):
        for subtask in subtasks:
            self.coordinator.acknowledge(checkpoint_id,
                                         TaskSnapshot(subtask, {}))


class TestCadence:
    def test_first_trigger_is_one_interval_after_start(self):
        h = Harness()
        assert h.tick(9) is None
        assert h.sent == [] and h.coordinator.pending is None
        h.tick(10)
        assert h.sent == [("trigger", 1)]
        assert h.coordinator.pending.pending_subtasks == {SRC, MAP, SINK}
        assert h.heard == [("triggered", 1, 3)]

    def test_disabled_without_an_interval(self):
        h = Harness(checkpoint_interval_ms=None)
        assert not h.coordinator.enabled
        assert h.coordinator.next_trigger_time is None
        h.tick(10_000)
        assert h.sent == []

    def test_no_trigger_while_one_is_pending(self):
        h = Harness()
        h.tick(10)
        h.tick(25)  # past the next slot, checkpoint 1 still in flight
        assert h.sent == [("trigger", 1)]
        h.ack(1, SRC, MAP, SINK)
        h.tick(26)
        assert h.sent == [("trigger", 1), ("notify", 1), ("trigger", 2)]

    def test_no_trigger_while_draining(self):
        h = Harness()
        h.tick(10, finished={SRC})  # a source ended: no full barrier cut
        assert h.sent == []
        h.tick(12, finished={SRC, MAP, SINK})  # nobody left to ask
        assert h.sent == []
        h.tick(13)  # the slot was kept, not skipped
        assert h.sent == [("trigger", 1)]

    def test_finished_non_source_shrinks_the_participants(self):
        h = Harness()
        h.tick(10, finished={SINK})
        assert h.coordinator.pending.pending_subtasks == {SRC, MAP}


class TestAcks:
    def test_seal_stores_counts_and_notifies_at_the_next_tick(self):
        h = Harness()
        h.tick(10)
        h.ack(1, SRC, MAP)
        assert h.coordinator.completed == 0
        h.now = 14
        h.ack(1, SINK)
        assert h.coordinator.pending is None
        assert h.coordinator.completed == 1
        assert h.coordinator.durations_ms == [4]
        assert h.coordinator.store.latest.checkpoint_id == 1
        # The commit signal waits for the tick: on the cooperative
        # engine the sealing ack arrives from inside a task step.
        assert ("notify", 1) not in h.sent
        h.tick(15)
        assert h.sent == [("trigger", 1), ("notify", 1)]
        assert ("completed", 1) in h.heard

    def test_ack_of_an_aborted_id_is_ignored(self):
        h = Harness(checkpoint_timeout_ms=5)
        h.tick(10)
        h.ack(1, SRC)
        h.tick(16)  # 6 ms in flight > 5: aborted
        assert h.coordinator.aborted == 1
        h.ack(1, MAP, SINK)  # stragglers of the aborted checkpoint
        assert h.coordinator.completed == 0
        assert len(h.coordinator.store) == 0
        h.tick(20)
        h.ack(1, SRC, MAP, SINK)  # still the old id: not checkpoint 2
        assert h.coordinator.pending.checkpoint_id == 2
        assert h.coordinator.completed == 0


class TestAborts:
    def test_finished_participant_aborts(self):
        h = Harness()
        h.tick(10)
        h.ack(1, SRC)
        assert h.tick(11, finished={MAP}) is None
        assert h.sent == [("trigger", 1), ("abort", 1)]
        assert h.coordinator.aborted == 1
        (event,) = [e for e in h.heard if e[0] == "aborted"]
        assert "1-map#0 finished before acknowledging" in event[2]

    def test_finished_after_acking_is_no_reason_to_abort(self):
        h = Harness()
        h.tick(10)
        h.ack(1, MAP)
        h.tick(11, finished={MAP})
        assert h.coordinator.aborted == 0

    def test_timeout_aborts_and_the_next_slot_triggers_again(self):
        h = Harness(checkpoint_timeout_ms=5)
        h.tick(10)
        h.tick(15)  # exactly the timeout: not yet expired
        assert h.coordinator.pending is not None
        h.tick(16)
        assert h.coordinator.pending is None and h.coordinator.aborted == 1
        h.tick(20)
        assert h.sent == [("trigger", 1), ("abort", 1), ("trigger", 2)]

    def test_abort_and_retrigger_in_one_tick_when_the_slot_is_due(self):
        h = Harness(checkpoint_timeout_ms=15)
        h.tick(10)
        h.tick(26)
        assert h.sent == [("trigger", 1), ("abort", 1), ("trigger", 2)]

    def test_tolerance_escalation(self):
        h = Harness(checkpoint_timeout_ms=5,
                    tolerable_consecutive_checkpoint_failures=1)
        h.tick(10)
        assert h.tick(16) is None  # first failure in a row: tolerated
        h.tick(20)
        failure = h.tick(26)
        assert "more than 1 consecutive checkpoint failures" in failure
        assert "checkpoint 2 aborted: timed out after 5 ms" in failure
        assert h.coordinator.aborted == 2
        # The streak restarts once reported; and a success resets it.
        h.tick(30)
        assert h.tick(36) is None
        h.tick(40)
        h.ack(4, SRC, MAP, SINK)
        h.tick(50)
        assert h.tick(56) is None

    def test_caller_abort_reports_through_the_same_path(self):
        h = Harness(tolerable_consecutive_checkpoint_failures=0)
        h.tick(10)
        failure = h.coordinator.abort("a worker drained mid-flight")
        assert "a worker drained mid-flight" in failure
        assert h.sent[-1] == ("abort", 1)


class TestAttempts:
    def test_new_attempt_drops_pending_and_restarts_the_cadence(self):
        h = Harness()
        h.tick(10)
        h.now = 17
        h.coordinator.begin_attempt()
        assert h.coordinator.pending is None and h.coordinator.aborted == 0
        h.tick(26)
        assert h.sent == [("trigger", 1)]
        h.tick(27)
        assert h.sent == [("trigger", 1), ("trigger", 2)]


class TestStats:
    def test_block_shape(self):
        h = Harness(checkpoint_timeout_ms=5)
        assert h.coordinator.stats() == {"completed": 0, "aborted": 0}
        h.tick(10)
        h.now = 13
        h.ack(1, SRC, MAP, SINK)
        h.tick(20)
        h.tick(26)
        assert h.coordinator.stats() == {
            "completed": 1, "aborted": 1, "duration_ms_min": 3,
            "duration_ms_max": 3, "duration_ms_mean": 3.0}

    def test_checkpoint_dir_makes_the_store_durable(self, tmp_path):
        h = Harness(checkpoint_dir=str(tmp_path))
        h.tick(10)
        h.ack(1, SRC, MAP, SINK)
        assert os.listdir(str(tmp_path)) == ["chk-1.snap"]
        assert h.coordinator.stats()["durable"] == {
            "persisted": 1, "retained_on_disk": 1,
            "corruptions_detected": 0, "restore_fallbacks": 0}
