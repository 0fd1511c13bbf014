"""Unit tests for the shared-memory exchange: the SPSC ring itself, the
dual-transport :class:`ExchangeWriter`, and the receiver's seq-merge.

Everything here runs single-process -- the ring is just shared pages,
so a writer and reader in one process exercise the exact slot protocol
the forked fleet uses (minus the memory-ordering question, which only
an architecture can answer; see the module docstring of
``repro.runtime.shm``).
"""

import os

import pytest

from repro.runtime.columnar import batch_to_columnar, decode_columnar
from repro.runtime.elements import (
    END_OF_STREAM,
    Record,
    RecordBatch,
    Watermark,
)
from repro.runtime.multiprocess import ExchangeWriter, _FrameReader, _FrameWriter
from repro.runtime.shm import (
    RingError,
    ShmRing,
    ShmRingReader,
    ShmRingWriter,
)


def make_pipe():
    read_fd, write_fd = os.pipe()
    return (_FrameReader(read_fd, peer="test pipe"), _FrameWriter(write_fd))


class TestShmRing:
    def test_wraparound_preserves_order(self):
        ring = ShmRing(slot_count=4, slot_bytes=64)
        writer, reader = ShmRingWriter(ring), ShmRingReader(ring)
        seq = 0
        seen = []
        for _ in range(5):  # 15 frames through a 4-slot ring
            for _ in range(3):
                assert writer.try_write(seq, seq % 7, 1, b"p%d" % seq)
                seq += 1
            for got_seq, ordinal, records, payload in reader.read_available():
                assert ordinal == got_seq % 7
                assert payload == b"p%d" % got_seq
                seen.append(got_seq)
        assert seen == list(range(15))
        ring.close()

    def test_full_ring_rejects_until_drained(self):
        ring = ShmRing(slot_count=2, slot_bytes=16)
        writer, reader = ShmRingWriter(ring), ShmRingReader(ring)
        assert writer.try_write(0, 0, 1, b"a")
        assert writer.try_write(1, 0, 1, b"b")
        assert not writer.try_write(2, 0, 1, b"c")  # full
        assert [f[3] for f in reader.read_available()] == [b"a", b"b"]
        assert writer.try_write(2, 0, 1, b"c")
        ring.close()

    def test_occupancy_is_record_denominated(self):
        ring = ShmRing(slot_count=4, slot_bytes=16)
        writer, reader = ShmRingWriter(ring), ShmRingReader(ring)
        assert writer.occupancy_records() == 0
        writer.try_write(0, 0, 10, b"a")
        writer.try_write(1, 0, 32, b"b")
        assert writer.occupancy_records() == 42
        reader.read_available()
        assert writer.occupancy_records() == 0
        ring.close()

    def test_trampled_state_byte_raises(self):
        ring = ShmRing(slot_count=2, slot_bytes=16)
        reader = ShmRingReader(ring, peer="trampled")
        ring.buf[0] = 99
        with pytest.raises(RingError, match="trampled"):
            reader.read_available()
        ring.close()

    def test_trampled_length_raises(self):
        ring = ShmRing(slot_count=2, slot_bytes=16)
        writer, reader = ShmRingWriter(ring), ShmRingReader(ring)
        writer.try_write(0, 0, 1, b"a")
        ring.buf[8:12] = (1 << 20).to_bytes(4, "little")
        with pytest.raises(RingError):
            reader.read_available()
        ring.close()

    def test_rejects_degenerate_slot_count(self):
        with pytest.raises(ValueError):
            ShmRing(slot_count=1, slot_bytes=64)


class TestExchangeWriter:
    def drain(self, reader, writer):
        writer.pipe.drain()
        return reader.read_available()

    def test_pipe_mode_sends_sequenced_frames(self):
        reader, pipe = make_pipe()
        exchange = ExchangeWriter(pipe, ring=None)
        batch = RecordBatch([Record(1, 0), Record(2, 1)])
        exchange.send(3, batch)
        exchange.send(3, Watermark(5))
        frames = self.drain(reader, exchange)
        assert frames == [(0, 3, batch), (1, 3, Watermark(5))]
        assert exchange.stats["pipe_frames"] == 2
        assert exchange.stats["pipe_records"] == 2
        assert exchange.stats["control_frames"] == 1
        assert exchange.stats["shm_frames"] == 0

    def test_shm_mode_routes_batches_to_ring_and_control_to_pipe(self):
        reader, pipe = make_pipe()
        ring = ShmRing(slot_count=4, slot_bytes=4096)
        exchange = ExchangeWriter(pipe, ShmRingWriter(ring))
        ring_reader = ShmRingReader(ring)
        batch = RecordBatch([Record(i, i) for i in range(5)])
        exchange.send(2, batch)            # seq 0 -> ring
        exchange.send(2, Watermark(9))     # seq 1 -> pipe
        exchange.send(2, END_OF_STREAM)    # seq 2 -> pipe
        pipe_frames = self.drain(reader, exchange)
        assert [(s, o) for s, o, _ in pipe_frames] == [(1, 2), (2, 2)]
        ((seq, ordinal, records, payload),) = ring_reader.read_available()
        assert (seq, ordinal, records) == (0, 2, 5)
        assert decode_columnar(payload).records == batch.records
        assert exchange.stats["shm_frames"] == 1
        assert exchange.stats["shm_records"] == 5
        assert exchange.stats["control_frames"] == 2
        assert exchange.stats["pickle_fallbacks"] == 0
        ring.close()

    def test_unschematizable_batch_falls_back_to_pipe(self):
        reader, pipe = make_pipe()
        ring = ShmRing(slot_count=4, slot_bytes=4096)
        exchange = ExchangeWriter(pipe, ShmRingWriter(ring))
        batch = RecordBatch([Record([1, 2], 0)])  # list value: no schema
        exchange.send(0, batch)
        ((seq, ordinal, element),) = self.drain(reader, exchange)
        assert (seq, ordinal, element) == (0, 0, batch)
        assert exchange.stats["fallback_unschematizable"] == 1
        assert exchange.stats["pickle_fallbacks"] == 1
        ring.close()

    def test_oversize_batch_falls_back_to_pipe(self):
        reader, pipe = make_pipe()
        ring = ShmRing(slot_count=4, slot_bytes=4096)
        exchange = ExchangeWriter(pipe, ShmRingWriter(ring))
        batch = RecordBatch([Record("x" * 100, i) for i in range(100)])
        exchange.send(0, batch)
        assert len(self.drain(reader, exchange)) == 1
        assert exchange.stats["fallback_oversize"] == 1
        ring.close()

    def test_full_ring_falls_back_to_pipe_without_blocking(self):
        reader, pipe = make_pipe()
        ring = ShmRing(slot_count=2, slot_bytes=4096)
        exchange = ExchangeWriter(pipe, ShmRingWriter(ring))
        for i in range(4):
            exchange.send(0, RecordBatch([Record(i, i)]))
        assert exchange.stats["shm_frames"] == 2
        assert exchange.stats["fallback_ring_full"] == 2
        assert len(self.drain(reader, exchange)) == 2
        assert exchange.occupancy_records() == 2
        ring.close()

    def test_columnar_batch_is_forwarded_without_rematerialization(self):
        reader, pipe = make_pipe()
        ring = ShmRing(slot_count=4, slot_bytes=4096)
        exchange = ExchangeWriter(pipe, ShmRingWriter(ring))
        batch = batch_to_columnar([Record(i, i) for i in range(3)])
        exchange.send(1, batch)
        ((_, _, _, payload),) = ShmRingReader(ring).read_available()
        assert decode_columnar(payload).records == batch.records
        ring.close()

    def test_decoded_columnar_fallback_is_repickleable(self):
        # A decoded batch's memoryview columns defeat pickle; the
        # fallback path must ship the row twin instead.
        reader, pipe = make_pipe()
        ring = ShmRing(slot_count=2, slot_bytes=65536)
        exchange = ExchangeWriter(pipe, ShmRingWriter(ring))
        source = batch_to_columnar([Record(i, i) for i in range(3)])
        import pickle

        from repro.runtime.columnar import encode_columnar
        decoded = decode_columnar(bytes(encode_columnar(source)))
        with pytest.raises(Exception):
            pickle.dumps(decoded)
        # Fill the ring so the columnar batch is forced onto the pipe.
        exchange.send(0, RecordBatch([Record(0, 0)]))
        exchange.send(0, RecordBatch([Record(1, 1)]))
        exchange.send(0, decoded)
        frames = self.drain(reader, exchange)
        assert frames[-1][2].records == decoded.records
        ring.close()


class TestSeqMerge:
    def test_interleaved_transports_reassemble_in_seq_order(self):
        """Frames split across ring and pipe must be delivered to the
        ingress channels in exactly the sender's emission order."""
        from repro.runtime.engine import EngineConfig
        reader, pipe = make_pipe()
        ring = ShmRing(slot_count=8, slot_bytes=4096)
        exchange = ExchangeWriter(pipe, ShmRingWriter(ring))
        ring_reader = ShmRingReader(ring)

        emitted = []
        for i in range(6):
            if i % 2 == 0:
                element = RecordBatch([Record(i, i)])
            else:
                element = Watermark(i)
            emitted.append(element)
            exchange.send(0, element)
        exchange.pipe.drain()

        # Replay the receiver's merge exactly as pump_ingress does.
        pending = {}
        for seq, ordinal, element in reader.read_available():
            pending[seq] = element
        for seq, ordinal, records, payload in ring_reader.read_available():
            pending[seq] = decode_columnar(payload)
        delivered = []
        next_seq = 0
        while next_seq in pending:
            delivered.append(pending.pop(next_seq))
            next_seq += 1
        assert next_seq == 6 and not pending
        for got, sent in zip(delivered, emitted):
            if sent.is_batch:
                assert got.records == sent.records
            else:
                assert got == sent
        ring.close()
