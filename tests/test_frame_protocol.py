"""Unit tests for the length-prefixed pipe frame protocol.

The failure modes the multiprocess backend must diagnose instead of
hanging on: a peer that died mid-write (truncated frame), a garbled
length prefix (would otherwise mean waiting for gigabytes that never
arrive), and an unpicklable payload.  Each raises :class:`FrameError`
naming the worker pair.
"""

import os
import pickle

import pytest

from repro.runtime.multiprocess import (
    _LEN,
    _MAX_FRAME,
    FrameError,
    _FrameReader,
    _FrameWriter,
)


def pipe_pair(peer="data pipe worker 0 -> worker 1"):
    read_fd, write_fd = os.pipe()
    return _FrameReader(read_fd, peer=peer), write_fd


class TestHappyPath:
    def test_round_trip(self):
        reader, write_fd = pipe_pair()
        writer = _FrameWriter(write_fd)
        writer.send(("ack", 1, {"k": "v"}))
        writer.send(("task_finished", ("1-map", 0)))
        assert reader.read_available() == [("ack", 1, {"k": "v"}),
                                           ("task_finished", ("1-map", 0))]
        writer.close()
        assert reader.read_available() == []
        assert reader.eof
        reader.close()

    def test_partial_frame_waits_while_peer_alive(self):
        """Half a frame with the writer still open is just backpressure,
        not corruption."""
        reader, write_fd = pipe_pair()
        payload = pickle.dumps(("collect", (1, 0), list(range(100))))
        os.write(write_fd, _LEN.pack(len(payload)) + payload[:10])
        assert reader.read_available() == []
        assert not reader.corrupt
        os.write(write_fd, payload[10:])
        assert reader.read_available() == [("collect", (1, 0),
                                            list(range(100)))]
        os.close(write_fd)
        reader.close()


class TestCorruption:
    def test_truncated_frame_at_eof_raises_naming_the_pair(self):
        """A peer that died mid-write leaves a partial frame; the reader
        must diagnose it instead of blocking forever."""
        reader, write_fd = pipe_pair(peer="data pipe worker 1 -> worker 0")
        payload = pickle.dumps(("done", {"rounds": 3}))
        os.write(write_fd, _LEN.pack(len(payload)) + payload[:-4])
        os.close(write_fd)  # the peer is gone
        with pytest.raises(FrameError) as excinfo:
            reader.read_available()
        assert "worker 1 -> worker 0" in str(excinfo.value)
        assert "truncated" in str(excinfo.value)
        assert reader.corrupt
        reader.close()

    def test_messages_before_the_tear_are_parsed_first(self):
        """Only the torn tail is corrupt; complete frames ahead of it
        already arrived and a retry must not see them again."""
        reader, write_fd = pipe_pair()
        good = pickle.dumps(("task_finished", ("1-map", 1)))
        os.write(write_fd, _LEN.pack(len(good)) + good)
        os.write(write_fd, _LEN.pack(500) + b"half")
        os.close(write_fd)
        with pytest.raises(FrameError, match="truncated"):
            reader.read_available()
        reader.close()

    def test_insane_length_prefix_raises_immediately(self):
        """A garbled prefix decodes to an absurd length; waiting for
        those bytes would hang forever, so it must raise now -- even
        with the writer still alive."""
        reader, write_fd = pipe_pair(peer="control pipe parent -> worker 0")
        os.write(write_fd, _LEN.pack(_MAX_FRAME + 1) + b"\xde\xad\xbe\xef")
        with pytest.raises(FrameError) as excinfo:
            reader.read_available()
        assert "garbled" in str(excinfo.value)
        assert "parent -> worker 0" in str(excinfo.value)
        os.close(write_fd)
        reader.close()

    def test_unpicklable_payload_raises(self):
        reader, write_fd = pipe_pair()
        os.write(write_fd, _LEN.pack(8) + b"notapkl!")
        with pytest.raises(FrameError, match="unpickle"):
            reader.read_available()
        os.close(write_fd)
        reader.close()

    def test_clean_eof_is_not_corruption(self):
        reader, write_fd = pipe_pair()
        writer = _FrameWriter(write_fd)
        writer.send(("done", {}))
        writer.close()
        assert reader.read_available() == [("done", {})]
        assert reader.read_available() == []
        assert reader.eof and not reader.corrupt
        reader.close()
