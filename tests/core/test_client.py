"""Tests for the THINC client's receive path and accounting."""

import numpy as np
import pytest

from repro.core.client import ClientCostModel, THINCClient
from repro.net import Connection, EventLoop, LAN_DESKTOP
from repro.protocol import wire
from repro.protocol.commands import SFillCommand, VideoFrameCommand
from repro.region import Rect
from repro.video import yuv

from tests.helpers import make_rig

RED = (255, 0, 0, 255)


def rig(headless=False):
    loop = EventLoop()
    conn = Connection(loop, LAN_DESKTOP)
    client = THINCClient(loop, conn, headless=headless)
    # Drive the client directly through the server->client endpoint.
    return loop, conn, client


def send(loop, conn, *messages):
    for msg in messages:
        conn.down.write(wire.encode_message(msg))
    loop.run_until_idle(max_time=5)


class TestReceivePath:
    def test_screen_init_sizes_framebuffer(self):
        loop, conn, client = rig()
        send(loop, conn, wire.ScreenInitMessage(80, 60))
        assert (client.fb.width, client.fb.height) == (80, 60)

    def test_commands_drawn_and_counted(self):
        loop, conn, client = rig()
        send(loop, conn, wire.ScreenInitMessage(80, 60),
             SFillCommand(Rect(0, 0, 10, 10), RED))
        assert tuple(client.fb.data[5, 5]) == RED
        assert client.stats["commands_by_kind"] == {"sfill": 1}
        assert client.total_commands() == 1

    def test_headless_counts_without_drawing(self):
        loop, conn, client = rig(headless=True)
        send(loop, conn, wire.ScreenInitMessage(80, 60),
             SFillCommand(Rect(0, 0, 10, 10), RED))
        assert client.total_commands() == 1
        assert tuple(client.fb.data[5, 5]) != RED

    def test_messages_split_across_chunks_reassemble(self):
        loop, conn, client = rig()
        data = wire.encode_message(wire.ScreenInitMessage(80, 60)) + \
            wire.encode_message(SFillCommand(Rect(0, 0, 10, 10), RED))
        # Feed the stream byte-by-byte through the parser.
        for i in range(0, len(data), 3):
            client._on_data(data[i : i + 3])
        assert client.total_commands() == 1
        assert tuple(client.fb.data[5, 5]) == RED

    def test_video_stream_registry(self):
        loop, conn, client = rig()
        rgb = np.zeros((12, 16, 3), dtype=np.uint8)
        frame = yuv.pack_yv12(*yuv.rgb_to_yv12(rgb))
        send(loop, conn,
             wire.ScreenInitMessage(80, 60),
             wire.VideoSetupMessage(4, "YV12", 16, 12, Rect(0, 0, 32, 24)),
             VideoFrameCommand(4, Rect(0, 0, 32, 24), 16, 12, frame, 1),
             VideoFrameCommand(4, Rect(0, 0, 32, 24), 16, 12, frame, 2),
             wire.VideoTeardownMessage(4))
        stats = client.video_stats[4]
        assert [no for no, _ in stats.arrivals] == [1, 2]
        times = [t for _, t in stats.arrivals]
        assert times == sorted(times)
        assert 4 not in client.video_streams

    def test_audio_chunks_recorded(self):
        loop, conn, client = rig()
        send(loop, conn, wire.AudioChunkMessage(1.25, b"\x00" * 100))
        assert len(client.audio.arrivals) == 1
        assert client.audio.arrivals[0][0] == 1.25


def empty_source_vframe(pixel_format="YV12", src=(0, 0)) -> bytes:
    """The framed bytes of a VFRAME whose source has no pixels — what a
    hostile or broken server can put on the wire, though the
    constructor now refuses to build one."""
    cmd = VideoFrameCommand(1, Rect(0, 0, 4, 4), 2, 2, bytes(8),
                            pixel_format="YUY2")
    cmd.pixel_format = pixel_format
    cmd.src_width, cmd.src_height = src
    cmd.yuv_bytes = b""
    return wire.encode_message(cmd)


class TestEmptySourceVideoFrame:
    @pytest.mark.parametrize("fmt,src", [("YV12", (0, 0)), ("YV12", (0, 2)),
                                         ("YUY2", (0, 3)), ("YUY2", (2, 0))])
    def test_parse_raises_protocol_error(self, fmt, src):
        with pytest.raises(wire.ProtocolError):
            wire.parse_messages(empty_source_vframe(fmt, src))

    def test_live_client_reports_it_and_keeps_its_pixels(self):
        errors = []
        loop, conn, client = rig()
        client.on_protocol_error = errors.append
        send(loop, conn, wire.ScreenInitMessage(8, 8),
             SFillCommand(Rect(0, 0, 8, 8), RED))
        conn.down.write(empty_source_vframe())
        loop.run_until_idle(max_time=5)
        assert client.stats["protocol_errors"] == 1
        assert isinstance(errors[0], wire.ProtocolError)
        assert (client.fb.data == np.array(RED, dtype=np.uint8)).all()
        # The parser was replaced; the stream carries on.
        send(loop, conn, SFillCommand(Rect(0, 0, 4, 4), (0, 0, 255, 255)))
        assert tuple(client.fb.data[1, 1]) == (0, 0, 255, 255)

    def test_without_a_hook_it_surfaces_as_protocol_error(self):
        loop, conn, client = rig()
        send(loop, conn, wire.ScreenInitMessage(8, 8))
        conn.down.write(empty_source_vframe())
        with pytest.raises(wire.ProtocolError):
            loop.run_until_idle(max_time=5)


class TestRebind:
    def test_a_rebound_stream_takes_only_checked_headers(self):
        errors = []
        loop, conn, client = rig()
        client.on_protocol_error = errors.append
        fresh = Connection(loop, LAN_DESKTOP)
        client.rebind(fresh)
        # A bare header announcing a long frame dies as its 5 bytes land.
        fresh.down.write(wire.frame_message(
            wire.ScreenInitMessage.type_id, bytes(1000))[:5])
        loop.run_until_idle(max_time=5)
        assert [type(exc) for exc in errors] == [wire.FieldRangeError]
        fresh.down.write(wire.wrap_checked(
            wire.encode_message(wire.ScreenInitMessage(8, 8)), 1))
        loop.run_until_idle(max_time=5)
        assert (client.fb.width, client.fb.height) == (8, 8)


class TestCostModel:
    def test_processing_time_accumulates(self, monkeypatch):
        monkeypatch.setattr(ClientCostModel, "per_byte", 1e-6)
        monkeypatch.setattr(ClientCostModel, "per_pixel", 1e-6)
        monkeypatch.setattr(ClientCostModel, "fixed", 0.0)
        loop, conn, client = rig()
        send(loop, conn, wire.ScreenInitMessage(80, 60),
             SFillCommand(Rect(0, 0, 10, 10), RED))
        cmd = SFillCommand(Rect(0, 0, 10, 10), RED)
        expected = cmd.wire_size() * 1e-6 + 100 * 1e-6
        assert client.stats["processing_time"] == pytest.approx(expected)

    def test_done_time_includes_processing(self):
        loop, conn, client = rig()
        send(loop, conn, wire.ScreenInitMessage(80, 60),
             SFillCommand(Rect(0, 0, 10, 10), RED))
        assert client.done_time_with_processing() > \
            client.stats["last_update_time"]

    def test_cost_formula(self, monkeypatch):
        monkeypatch.setattr(ClientCostModel, "per_byte", 2.0)
        monkeypatch.setattr(ClientCostModel, "per_pixel", 3.0)
        monkeypatch.setattr(ClientCostModel, "fixed", 1.0)
        assert ClientCostModel().cost(10, 100) == pytest.approx(
            1.0 + 20.0 + 300.0)


class TestRefreshRequest:
    def test_refresh_recovers_corrupted_region(self):
        """Client-side state loss repaired by a region refresh."""
        loop, conn, mon, server, ws, client = make_rig(64, 48)
        ws.fill_rect(ws.screen, ws.screen.bounds, (70, 80, 90, 255))
        ws.draw_text(ws.screen, 4, 4, "state", (255, 255, 0, 255))
        loop.run_until_idle(max_time=5)
        assert client.fb.same_as(ws.screen.fb)
        # Corrupt part of the client framebuffer out-of-band.
        client.fb.fill_rect(Rect(0, 0, 32, 24), (0, 0, 0, 255))
        assert not client.fb.same_as(ws.screen.fb)
        client.request_refresh(Rect(0, 0, 32, 24))
        loop.run_until_idle(max_time=5)
        assert client.fb.same_as(ws.screen.fb)

    def test_refresh_outside_screen_ignored(self):
        loop, conn, mon, server, ws, client = make_rig(64, 48)
        ws.fill_rect(ws.screen, Rect(0, 0, 4, 4), RED)
        loop.run_until_idle(max_time=5)
        before = client.total_commands()
        client.request_refresh(Rect(1000, 1000, 8, 8))
        loop.run_until_idle(max_time=5)
        assert client.total_commands() == before
