"""Tests for the THINC server: sessions, multi-client, control flow."""

import numpy as np
import pytest

from tests.helpers import GREEN, RED, make_multi_rig
from repro.core import THINCClient
from repro.core.scheduler import FIFOScheduler
from repro.net import Connection, LAN_DESKTOP
from repro.region import Rect


def rig(n_clients=1, viewports=None, **server_kw):
    viewports = viewports or [None] * n_clients
    loop, mon, server, ws, clients = make_multi_rig(viewports, **server_kw)
    return loop, server, ws, clients


class TestMultiClient:
    def test_screen_sharing_two_clients(self):
        """Display output multiplexes to all attached clients."""
        loop, server, ws, (a, b) = rig(n_clients=2)
        ws.fill_rect(ws.screen, Rect(0, 0, 40, 40), RED)
        ws.draw_text(ws.screen, 2, 50, "shared", GREEN)
        loop.run_until_idle(max_time=5)
        assert a.fb.same_as(ws.screen.fb)
        assert b.fb.same_as(ws.screen.fb)

    def test_mixed_viewports(self):
        """A desktop and a PDA can share one session (Section 6)."""
        loop, server, ws, (desktop, pda) = rig(
            n_clients=2, viewports=[None, (48, 32)])
        ws.fill_rect(ws.screen, ws.screen.bounds, RED)
        loop.run_until_idle(max_time=5)
        assert (desktop.fb.width, desktop.fb.height) == (96, 64)
        assert (pda.fb.width, pda.fb.height) == (48, 32)
        assert tuple(pda.fb.data[16, 24]) == RED

    def test_detach_stops_updates(self):
        loop, server, ws, (a,) = rig()
        ws.fill_rect(ws.screen, Rect(0, 0, 8, 8), RED)
        loop.run_until_idle(max_time=5)
        server.detach_client(server.sessions[0])
        before = a.stats["messages"]
        ws.fill_rect(ws.screen, Rect(20, 20, 8, 8), GREEN)
        loop.run_until_idle(max_time=5)
        assert a.stats["messages"] == before

    def test_detach_stops_the_flush_loop(self):
        """A backlogged unit whose pipe died stops polling it once the
        server forgets the session; the caller need not detach it too."""
        loop, server, ws, (a,) = rig()
        session = server.sessions[0]
        a.connection.close()
        ws.fill_rect(ws.screen, Rect(0, 0, 8, 8), RED)
        loop.run_until(loop.now + 0.1)
        assert session.pending()
        server.detach_client(session)
        periods = session.stats["flush_periods"]
        loop.run_until_idle(max_time=loop.now + 1.0)
        assert session.stats["flush_periods"] == periods


class TestSession:
    def test_screen_init_sent_first(self):
        loop, server, ws, (a,) = rig()
        loop.run_until_idle(max_time=2)
        assert (a.fb.width, a.fb.height) == (96, 64)

    def test_session_stats_accumulate(self):
        loop, server, ws, (a,) = rig()
        ws.fill_rect(ws.screen, Rect(0, 0, 8, 8), RED)
        loop.run_until_idle(max_time=5)
        session = server.sessions[0]
        assert session.stats["messages_sent"] >= 2  # init + fill
        assert session.stats["bytes_sent"] > 0
        assert session.stats["flush_periods"] >= 1

    def test_pending_reflects_backlog(self):
        loop, server, ws, (a,) = rig()
        ws.fill_rect(ws.screen, Rect(0, 0, 8, 8), RED)
        assert server.pending()
        loop.run_until_idle(max_time=5)
        assert not server.pending()

    def test_scheduler_factory_honoured(self):
        loop, server, ws, (a,) = rig(scheduler_factory=FIFOScheduler)
        assert isinstance(server.sessions[0].buffer.scheduler,
                          FIFOScheduler)

    def test_audio_reaches_all_clients(self):
        loop, server, ws, (a, b) = rig(n_clients=2)
        server.submit_audio(0.5, b"\x01\x02" * 500)
        loop.run_until_idle(max_time=5)
        for client in (a, b):
            assert len(client.audio.arrivals) == 1
            ts, arrival = client.audio.arrivals[0]
            assert ts == 0.5


class TestVideoControl:
    def _frame(self, w, h):
        from repro.video import yuv

        rgb = np.full((h, w, 3), 99, dtype=np.uint8)
        return yuv.pack_yv12(*yuv.rgb_to_yv12(rgb))

    def test_stream_lifecycle_reaches_client(self):
        loop, server, ws, (a,) = rig()
        stream = ws.video_create_stream("YV12", 16, 12, Rect(0, 0, 32, 24))
        ws.video_put_frame(stream, self._frame(16, 12))
        ws.video_move_stream(stream, Rect(8, 8, 32, 24))
        ws.video_destroy_stream(stream)
        loop.run_until_idle(max_time=5)
        assert len(a.video_stats[stream.stream_id].arrivals) == 1
        assert stream.stream_id not in a.video_streams  # torn down

    def test_video_scaled_per_session(self):
        loop, server, ws, (desktop, pda) = rig(
            n_clients=2, viewports=[None, (48, 32)])
        stream = ws.video_create_stream("YV12", 16, 12, Rect(0, 0, 96, 64))
        ws.video_put_frame(stream, self._frame(16, 12))
        loop.run_until_idle(max_time=5)
        # The PDA's frame was re-encoded smaller than the desktop's.
        assert pda.stats["bytes_received"] < desktop.stats["bytes_received"]
        assert len(pda.video_stats[stream.stream_id].arrivals) == 1


class TestResizeControl:
    def test_client_initiated_resize_rescales_video_path(self):
        loop, server, ws, (a,) = rig()
        a.request_resize(48, 32)
        loop.run_until_idle(max_time=5)
        assert server.sessions[0].scaler.sx == pytest.approx(0.5)
        ws.fill_rect(ws.screen, ws.screen.bounds, GREEN)
        loop.run_until_idle(max_time=5)
        assert (a.fb.width, a.fb.height) == (48, 32)
        assert tuple(a.fb.data[10, 10]) == GREEN


class TestMobility:
    def test_late_attach_receives_current_screen(self):
        """The paper's mobility story: a client connecting mid-session
        gets the same persistent desktop."""
        loop, server, ws, (first,) = rig()
        ws.fill_rect(ws.screen, ws.screen.bounds, (30, 60, 90, 255))
        ws.draw_text(ws.screen, 4, 4, "persistent session", GREEN)
        loop.run_until_idle(max_time=5)

        conn2 = Connection(loop, LAN_DESKTOP)
        server.attach_client(conn2)
        second = THINCClient(loop, conn2)
        loop.run_until_idle(max_time=5)
        assert second.fb.same_as(ws.screen.fb)
        assert second.fb.same_as(first.fb)

    def test_late_attach_with_small_viewport(self):
        loop, server, ws, (first,) = rig()
        ws.fill_rect(ws.screen, ws.screen.bounds, RED)
        loop.run_until_idle(max_time=5)

        conn2 = Connection(loop, LAN_DESKTOP)
        server.attach_client(conn2, viewport=(48, 32))
        pda = THINCClient(loop, conn2)
        loop.run_until_idle(max_time=5)
        assert (pda.fb.width, pda.fb.height) == (48, 32)
        assert tuple(pda.fb.data[16, 24]) == RED

    def test_attach_before_any_drawing_is_clean(self):
        loop, server, ws, (first,) = rig()
        # No drawing yet: nothing to refresh, no crash.
        assert first.total_commands() == 0
