"""Unit tests for channel occupancy accounting.

The lifetime invariant under test is ``pushed == polled + cleared +
size``: every record that ever entered a channel is either consumed,
dropped with accounting (chaos losses), or still buffered.
``job_report()`` throughput and occupancy figures rely on the balance
holding, in a restarted job's fresh channels too.
"""

from repro.runtime.channels import Channel, element_weight
from repro.runtime.columnar import batch_to_columnar
from repro.runtime.elements import (
    CheckpointBarrier,
    EndOfStream,
    Record,
    RecordBatch,
    Watermark,
    segments,
)


def _balanced(channel):
    return channel.pushed == channel.polled + channel.cleared + channel.size


def test_element_weight():
    assert element_weight(Record(1)) == 1
    assert element_weight(RecordBatch([Record(1), Record(2)])) == 2
    assert element_weight(RecordBatch([Record(1), Record(2)],
                                      [(1, 5), (2, 6)])) == 4
    assert element_weight(RecordBatch([], [(0, 5)])) == 1
    assert element_weight(RecordBatch([])) == 0
    assert element_weight(Watermark(5)) == 1
    assert element_weight(CheckpointBarrier(1)) == 1
    assert element_weight(EndOfStream()) == 1


def test_push_poll_balance():
    channel = Channel("t")
    for i in range(4):
        channel.push(Record(i))
    channel.push(RecordBatch([Record(10), Record(11), Record(12)]))
    assert channel.pushed == 7 and channel.size == 7
    channel.poll()
    channel.poll()
    assert channel.polled == 2 and channel.size == 5
    assert _balanced(channel)


def test_requeue_front_reverses_poll_accounting():
    channel = Channel("t")
    channel.push(RecordBatch([Record(i) for i in range(5)]))
    batch = channel.poll()
    assert channel.polled == 5
    channel.requeue_front(RecordBatch(batch.records[2:]))
    assert channel.polled == 2 and channel.size == 3
    assert _balanced(channel)


def test_counters_balance_after_crash_restore():
    """End to end: a crash-restored job runs on fresh channels; the
    lifetime counters must balance on every one of them."""
    from repro.api.environment import Environment
    from repro.runtime.engine import EngineConfig
    from repro.runtime.restart import FixedDelayRestart
    from repro.testing.oracles import crash_once

    faults = crash_once(min_checkpoints=1, at_round=8)
    env = Environment(parallelism=2, config=EngineConfig(
        checkpoint_interval_ms=3, elements_per_step=2, faults=faults,
        restart_strategy=FixedDelayRestart(max_restarts=3, delay_ms=0)))
    collected = (env.from_collection(range(200))
                 .key_by(lambda v: v % 5)
                 .sum()
                 .collect())
    env.execute()
    assert faults.applied, "crash never injected"
    assert collected.get(), "job produced no output"
    engine = env.last_engine
    assert engine.restarts >= 1
    for task in engine.tasks:
        for channel, _ in task.inputs:
            assert _balanced(channel), (
                "channel %s unbalanced: pushed=%d polled=%d cleared=%d "
                "size=%d" % (channel.name, channel.pushed, channel.polled,
                             channel.cleared, channel.size))


def test_chaos_drop_and_duplicate_keep_balance():
    channel = Channel("t")
    channel.push(Record("a"))
    channel.push(RecordBatch([Record("b"), Record("c")]))
    assert channel.drop_one_record()
    assert channel.cleared == 1
    assert channel.duplicate_one_record()
    assert _balanced(channel)
    while channel.poll() is not None:
        pass
    assert _balanced(channel) and channel.size == 0


# -- chaos edits inside a batch that carries watermarks ----------------------


def _sequence(channel):
    """What a consumer of ``channel`` observes: records by value and
    watermarks, each mark at its position among its batch's records."""
    out = []
    for element in channel._queue:
        records = element.records
        for start, stop, watermark in segments(len(records), element.marks):
            out.extend(record.value for record in records[start:stop])
            if watermark is not None:
                out.append(("wm", watermark))
    return out


def _marked(columnar=False):
    channel = Channel("t")
    records = [Record(value, value) for value in (1, 2, 3)]
    batch = RecordBatch(records, [(0, 10), (1, 11), (3, 13)])
    if columnar:
        batch = batch_to_columnar(records)
        batch.marks = [(0, 10), (1, 11), (3, 13)]
    channel.push(batch)
    return channel


def test_a_drop_inside_a_marked_batch_shifts_the_later_marks():
    for columnar in (False, True):
        channel = _marked(columnar)
        assert _sequence(channel) == [("wm", 10), 1, ("wm", 11), 2, 3,
                                      ("wm", 13)]
        assert channel.drop_one_record()
        assert _sequence(channel) == [("wm", 10), ("wm", 11), 2, 3,
                                      ("wm", 13)]
        assert channel._queue[0].marks == [(0, 10), (0, 11), (2, 13)]
        assert _balanced(channel) and channel.cleared == 1


def test_a_duplicate_inside_a_marked_batch_shifts_the_later_marks():
    for columnar in (False, True):
        channel = _marked(columnar)
        assert channel.duplicate_one_record()
        assert _sequence(channel) == [("wm", 10), 1, 1, ("wm", 11), 2, 3,
                                      ("wm", 13)]
        assert _balanced(channel) and channel.size == 7


def test_the_row_twin_of_a_columnar_batch_keeps_its_marks():
    channel = _marked(columnar=True)
    assert channel._queue[0].is_columnar
    demoted = channel._demote_columnar(0)
    assert not demoted.is_columnar and channel._queue[0] is demoted
    assert demoted.marks == [(0, 10), (1, 11), (3, 13)]
    assert demoted.records == [Record(value, value) for value in (1, 2, 3)]


def test_dropping_the_last_record_of_a_marked_batch_keeps_its_marks():
    channel = Channel("t")
    channel.push(RecordBatch([Record(1)], [(0, 4), (1, 5)]))
    channel.push(RecordBatch([Record(2)]))
    assert channel.size == 4
    assert channel.drop_one_record()
    assert _sequence(channel) == [("wm", 4), ("wm", 5), 2]
    assert channel.size == 3 and channel.cleared == 1 and _balanced(channel)
    assert channel.drop_one_record()      # the unmarked batch goes whole
    assert len(channel._queue) == 1 and not channel.has_buffered_record
    assert not channel.drop_one_record()
    assert channel.poll().marks == [(0, 4), (0, 5)]
    assert _balanced(channel) and channel.size == 0
