"""Tests for protocol trace capture and replay."""

import io

import pytest

from repro.net import Connection, EventLoop, LAN_DESKTOP, SimClock
from repro.protocol import wire
from repro.protocol.trace import (TraceRecord, TraceRecorder, TraceReplayer,
                                  read_trace, summarize_trace)
from repro.protocol.commands import SFillCommand
from repro.region import Rect

RED = (255, 0, 0, 255)


def make_trace():
    clock = SimClock()
    sink = io.BytesIO()
    recorder = TraceRecorder(sink, clock)
    recorder.record(wire.encode_message(wire.ScreenInitMessage(64, 48)))
    clock.advance_to(0.5)
    recorder.record(wire.encode_message(
        SFillCommand(Rect(0, 0, 8, 8), RED)))
    clock.advance_to(1.25)
    recorder.record(wire.encode_message(
        SFillCommand(Rect(8, 0, 8, 8), RED)))
    return sink.getvalue(), recorder


class TestRecordAndRead:
    def test_roundtrip(self):
        data, recorder = make_trace()
        records = read_trace(data)
        assert len(records) == 3
        assert recorder.records_written == 3
        assert [r.time for r in records] == [0.0, 0.5, 1.25]

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            read_trace(b"NOTATRACE" + b"\x00" * 32)

    def test_truncated_rejected(self):
        data, _ = make_trace()
        with pytest.raises(ValueError):
            read_trace(data[:-2])

    def test_tee_passes_through(self):
        clock = SimClock()
        sink = io.BytesIO()
        recorder = TraceRecorder(sink, clock)
        seen = []
        tee = recorder.tee(seen.append)
        tee(b"hello")
        assert seen == [b"hello"]
        assert recorder.bytes_written == 5


class TestReplay:
    def test_replay_into_preserves_content(self):
        data, _ = make_trace()
        replayer = TraceReplayer(read_trace(data))
        chunks = []
        assert replayer.replay_into(chunks.append) == 3
        messages = wire.parse_messages(b"".join(chunks))
        assert isinstance(messages[0], wire.ScreenInitMessage)
        assert messages[1].kind == "sfill"

    def test_schedule_into_reenacts_timing(self):
        data, _ = make_trace()
        loop = EventLoop()
        times = []
        TraceReplayer(read_trace(data)).schedule_into(
            loop, lambda d: times.append(loop.now), start_delay=0.1)
        loop.run_until_idle()
        assert times == pytest.approx([0.1, 0.6, 1.35])

    def test_replay_drives_a_real_client(self):
        """A recorded session replayed into a fresh client redraws it."""
        from repro.core import THINCClient

        data, _ = make_trace()
        loop = EventLoop()
        conn = Connection(loop, LAN_DESKTOP)
        client = THINCClient(loop, conn)
        TraceReplayer(read_trace(data)).replay_into(client._on_data)
        assert client.total_commands() == 2
        assert tuple(client.fb.data[0, 0]) == RED

    def test_empty_replay(self):
        loop = EventLoop()
        TraceReplayer([]).schedule_into(loop, lambda d: None)
        assert loop.pending() == 0


class TestSummary:
    def test_summarize(self):
        data, _ = make_trace()
        summary = summarize_trace(read_trace(data))
        assert summary["records"] == 3
        assert summary["duration"] == pytest.approx(1.25)
        assert summary["messages"] == {"SFILL": 2, "SCREEN_INIT": 1}
        assert summary["unparsed_bytes"] == 0

    def test_kind_bytes_add_up_to_the_parsed_bytes(self):
        data, _ = make_trace()
        cursor = wire.CursorImageMessage(0, 0, 2, 2, bytes(16))
        cut = wire.encode_message(SFillCommand(Rect(0, 8, 8, 8), RED))[:-3]
        tail = TraceRecord(2.0, wire.encode_message(cursor) + cut)
        summary = summarize_trace(read_trace(data) + [tail])
        assert summary["messages"]["CURSOR_IMAGE"] == 1
        assert summary["unparsed_bytes"] == len(cut)
        assert sum(summary["bytes_by_kind"].values()) == \
            summary["bytes"] - summary["unparsed_bytes"]
