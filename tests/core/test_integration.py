"""End-to-end integration: window server -> THINC -> network -> client.

The strongest correctness statement the system can make: after any
workload, once the network drains, the client framebuffer is
pixel-identical to the server's screen — across SRSF reordering,
non-blocking partial flushes, offscreen replay, eviction and merging.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import BLUE, GREEN, RED, WHITE, make_rig
from repro.core import THINCClient
from repro.display import solid_pixels
from repro.net import LinkParams, WAN_DESKTOP
from repro.region import Rect
from repro.video.stream import SyntheticVideoClip


class TestPixelExactness:
    def test_simple_drawing(self):
        loop, conn, mon, server, ws, client = make_rig()
        ws.fill_rect(ws.screen, ws.screen.bounds, WHITE)
        ws.fill_rect(ws.screen, Rect(10, 10, 30, 20), RED)
        ws.draw_text(ws.screen, 12, 14, "Hello", BLUE)
        loop.run_until_idle(max_time=5)
        assert client.fb.same_as(ws.screen.fb)

    def test_double_buffered_page_render(self):
        """Mozilla-style: compose offscreen, flip onscreen."""
        loop, conn, mon, server, ws, client = make_rig()
        page = ws.create_pixmap(96, 64)
        ws.fill_rect(page, page.bounds, WHITE)
        ws.fill_tiled(page, Rect(0, 0, 96, 12),
                      solid_pixels(4, 4, (220, 220, 255, 255)))
        ws.draw_text(page, 4, 2, "Title", (0, 0, 0, 255))
        rng = np.random.default_rng(1)
        ws.put_image(page, Rect(8, 20, 40, 30),
                     rng.integers(0, 256, (30, 40, 4), dtype=np.uint8))
        ws.copy_area(page, ws.screen, page.bounds, 0, 0)
        loop.run_until_idle(max_time=5)
        assert client.fb.same_as(ws.screen.fb)

    def test_scrolling_uses_copy_and_stays_exact(self):
        loop, conn, mon, server, ws, client = make_rig()
        rng = np.random.default_rng(2)
        ws.put_image(ws.screen, ws.screen.bounds,
                     rng.integers(0, 256, (64, 96, 4), dtype=np.uint8))
        loop.run_until_idle(max_time=5)
        # Scroll up 10 rows, fill the exposed strip.
        ws.copy_area(ws.screen, ws.screen, Rect(0, 10, 96, 54), 0, 0)
        ws.fill_rect(ws.screen, Rect(0, 54, 96, 10), WHITE)
        before = mon.total_bytes("server->client")
        loop.run_until_idle(max_time=5)
        after = mon.total_bytes("server->client")
        assert client.fb.same_as(ws.screen.fb)
        # The scroll travelled as COPY + SFILL: a few dozen bytes.
        assert after - before < 200

    def test_overdraw_on_slow_link_converges(self):
        """Repeated full-screen updates on a thin pipe: eviction drops
        stale frames but the final state must match."""
        # A small socket buffer keeps the backlog in the client buffer,
        # where eviction can drop it (a huge socket buffer would commit
        # stale frames before they could be overwritten).
        slow = LinkParams("drip", bandwidth_bps=2e6, rtt=0.02)
        loop, conn, mon, server, ws, client = make_rig(link=slow,
                                                       send_buffer=30000)
        rng = np.random.default_rng(3)
        for i in range(12):
            ws.put_image(ws.screen, Rect(0, 0, 96, 64),
                         rng.integers(0, 256, (64, 96, 4), dtype=np.uint8))
        loop.run_until_idle(max_time=30)
        assert client.fb.same_as(ws.screen.fb)
        # Eviction must have saved bandwidth: far less than 12 frames.
        sent = mon.total_bytes("server->client")
        one_frame = 96 * 64 * 4
        assert sent < 6 * one_frame

    def test_wan_latency_does_not_affect_correctness(self):
        loop, conn, mon, server, ws, client = make_rig(link=WAN_DESKTOP)
        rng = np.random.default_rng(4)
        for i in range(5):
            x, y = int(rng.integers(0, 60)), int(rng.integers(0, 40))
            ws.fill_rect(ws.screen, Rect(x, y, 20, 15),
                         tuple(int(v) for v in rng.integers(0, 256, 3))
                         + (255,))
            ws.draw_text(ws.screen, x, y, "wan", WHITE)
        loop.run_until_idle(max_time=10)
        assert client.fb.same_as(ws.screen.fb)

    def test_encrypted_session_pixel_exact(self):
        loop, conn, mon, server, ws, client = make_rig(encrypt=True)
        ws.fill_rect(ws.screen, Rect(0, 0, 50, 30), GREEN)
        ws.draw_text(ws.screen, 4, 4, "secret", RED)
        loop.run_until_idle(max_time=5)
        assert client.fb.same_as(ws.screen.fb)

    def test_encrypted_bytes_differ_from_plaintext(self):
        received = []
        loop, conn, mon, server, ws, _ = make_rig(32, 32, encrypt_key=b"k1")
        conn.down.connect(lambda d: received.append(d))
        ws.fill_rect(ws.screen, Rect(0, 0, 8, 8), RED)
        loop.run_until_idle(max_time=5)
        stream = b"".join(received)
        assert b"\xff\x00\x00\xff" not in stream  # colour not in clear

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_random_workload_pixel_exact(self, seed):
        rng = np.random.default_rng(seed)
        loop, conn, mon, server, ws, client = make_rig(width=64, height=48)
        pixmaps = []
        for _ in range(20):
            op = rng.integers(0, 6)
            x, y = int(rng.integers(0, 48)), int(rng.integers(0, 32))
            w, h = int(rng.integers(1, 16)), int(rng.integers(1, 16))
            color = tuple(int(v) for v in rng.integers(0, 256, 3)) + (255,)
            if op == 0:
                ws.fill_rect(ws.screen, Rect(x, y, w, h), color)
            elif op == 1:
                ws.put_image(ws.screen, Rect(x, y, w, h),
                             rng.integers(0, 256, (h, w, 4), dtype=np.uint8))
            elif op == 2:
                ws.draw_text(ws.screen, x, y, "zx", color)
            elif op == 3:
                ws.copy_area(ws.screen, ws.screen, Rect(0, 0, 24, 24), x, y)
            elif op == 4:
                pm = ws.create_pixmap(16, 16)
                ws.fill_rect(pm, Rect(0, 0, 16, 16), color)
                ws.draw_text(pm, 1, 1, "q", WHITE)
                pixmaps.append(pm)
            elif op == 5 and pixmaps:
                pm = pixmaps[int(rng.integers(0, len(pixmaps)))]
                ws.copy_area(pm, ws.screen, Rect(0, 0, 16, 16), x, y)
        loop.run_until_idle(max_time=10)
        assert client.fb.same_as(ws.screen.fb)


class TestVideoPlayback:
    def test_video_full_rate_on_lan(self):
        loop, conn, mon, server, ws, client = make_rig(width=128, height=96)
        clip = SyntheticVideoClip(width=32, height=24, fps=24, duration=0.5)
        stream = ws.video_create_stream("YV12", 32, 24, Rect(0, 0, 128, 96))

        def put(i):
            if i < clip.frame_count:
                ws.video_put_frame(stream, clip.yv12_frame(i))
                loop.schedule(clip.frame_interval, lambda: put(i + 1))
            else:
                ws.video_destroy_stream(stream)

        loop.schedule(0, lambda: put(0))
        end = loop.run_until_idle(max_time=10)
        vstats = client.video_stats[stream.stream_id]
        assert len(vstats.arrivals) == clip.frame_count
        assert client.fb.same_as(ws.screen.fb)
        # Playback must not stretch: last frame soon after clip end.
        assert end < clip.duration + 0.5

    def test_video_drops_frames_on_thin_pipe_but_converges(self):
        # 64x48 YV12 at 24 fps needs ~0.9 Mbps; give it half that, and
        # a socket buffer that holds only ~1.5 frames so the backlog
        # lives in the client buffer where eviction can drop frames.
        thin = LinkParams("thin", bandwidth_bps=0.45e6, rtt=0.01)
        loop, conn, mon, server, ws, client = make_rig(
            width=128, height=96, link=thin, send_buffer=7000)
        clip = SyntheticVideoClip(width=64, height=48, fps=24, duration=0.5)
        stream = ws.video_create_stream("YV12", 64, 48, Rect(0, 0, 128, 96))

        def put(i):
            if i < clip.frame_count:
                ws.video_put_frame(stream, clip.yv12_frame(i))
                loop.schedule(clip.frame_interval, lambda: put(i + 1))
            else:
                ws.video_destroy_stream(stream)

        loop.schedule(0, lambda: put(0))
        loop.run_until_idle(max_time=30)
        vstats = client.video_stats[stream.stream_id]
        assert len(vstats.arrivals) < clip.frame_count  # drops occurred
        # The newest frame always wins: final screen still matches.
        assert client.fb.same_as(ws.screen.fb)


class TestServerSideScaling:
    def test_scaled_session_transfers_less(self):
        results = {}
        for viewport in [None, (24, 16)]:
            loop, conn, mon, server, ws, client = make_rig(
                width=96, height=64, viewport=viewport)
            rng = np.random.default_rng(5)
            ws.put_image(ws.screen, ws.screen.bounds,
                         rng.integers(0, 256, (64, 96, 4), dtype=np.uint8))
            loop.run_until_idle(max_time=5)
            results[viewport] = mon.total_bytes("server->client")
        assert results[(24, 16)] < results[None] / 3

    def test_scaled_client_framebuffer_is_viewport_sized(self):
        loop, conn, mon, server, ws, client = make_rig(viewport=(24, 16))
        ws.fill_rect(ws.screen, ws.screen.bounds, RED)
        loop.run_until_idle(max_time=5)
        assert (client.fb.width, client.fb.height) == (24, 16)
        assert tuple(client.fb.data[8, 12]) == RED

    def test_dynamic_resize_request(self):
        loop, conn, mon, server, ws, client = make_rig()
        client.request_resize(48, 32)
        loop.run_until_idle(max_time=5)
        session = server.sessions[0]
        assert session.viewport == (48, 32)
        ws.fill_rect(ws.screen, ws.screen.bounds, BLUE)
        loop.run_until_idle(max_time=5)
        assert tuple(client.fb.data[10, 10]) == BLUE


class TestInputPath:
    def test_client_input_reaches_server_handler(self):
        loop, conn, mon, server, ws, client = make_rig()
        seen = []
        server.input_handler = lambda session, msg: seen.append(msg)
        client.send_input("mouse-click", 12, 34)
        loop.run_until_idle(max_time=5)
        assert len(seen) == 1
        assert (seen[0].x, seen[0].y) == (12, 34)

    def test_input_latency_includes_upstream_half_rtt(self):
        loop, conn, mon, server, ws, client = make_rig(link=WAN_DESKTOP)
        times = []
        server.input_handler = lambda s, m: times.append(loop.now)
        client.send_input("mouse-click", 1, 1)
        loop.run_until_idle(max_time=5)
        assert times[0] >= WAN_DESKTOP.rtt / 2

    def test_headless_client_accounts_without_rendering(self):
        loop, conn, mon, server, ws, _ = make_rig(64, 48)
        client = THINCClient(loop, conn, headless=True)
        ws.fill_rect(ws.screen, Rect(0, 0, 20, 20), RED)
        loop.run_until_idle(max_time=5)
        assert client.total_commands() == 1
        assert client.stats["bytes_received"] > 0


class TestConcurrentVideoStreams:
    def test_two_streams_play_side_by_side(self):
        """Video conferencing: several streams share one session."""
        loop, conn, mon, server, ws, client = make_rig(width=128, height=96)
        clip_a = SyntheticVideoClip(width=32, height=24, fps=12,
                                    duration=0.5, seed=1)
        clip_b = SyntheticVideoClip(width=16, height=12, fps=24,
                                    duration=0.5, seed=2)
        stream_a = ws.video_create_stream("YV12", 32, 24,
                                          Rect(0, 0, 64, 48))
        stream_b = ws.video_create_stream("YUY2", 16, 12,
                                          Rect(64, 48, 64, 48))

        def put(stream, clip, fmt, i):
            if i < clip.frame_count:
                ws.video_put_frame(stream, clip.encoded_frame(i, fmt))
                loop.schedule(clip.frame_interval,
                              lambda: put(stream, clip, fmt, i + 1))
            else:
                ws.video_destroy_stream(stream)

        loop.schedule(0, lambda: put(stream_a, clip_a, "YV12", 0))
        loop.schedule(0, lambda: put(stream_b, clip_b, "YUY2", 0))
        loop.run_until_idle(max_time=10)
        assert len(client.video_stats[stream_a.stream_id].arrivals) == \
            clip_a.frame_count
        assert len(client.video_stats[stream_b.stream_id].arrivals) == \
            clip_b.frame_count
        assert client.fb.same_as(ws.screen.fb)

    def test_moving_stream_repaints_correctly(self):
        loop, conn, mon, server, ws, client = make_rig(width=128, height=96)
        clip = SyntheticVideoClip(width=16, height=12, fps=24, duration=0.5)
        stream = ws.video_create_stream("YV12", 16, 12, Rect(0, 0, 32, 24))
        ws.video_put_frame(stream, clip.yv12_frame(0))
        loop.run_until_idle(max_time=5)
        # The window moves; subsequent frames land at the new place.
        ws.video_move_stream(stream, Rect(64, 48, 32, 24))
        ws.fill_rect(ws.screen, Rect(0, 0, 32, 24), (0, 0, 0, 255))
        ws.video_put_frame(stream, clip.yv12_frame(1))
        ws.video_destroy_stream(stream)
        loop.run_until_idle(max_time=5)
        assert client.fb.same_as(ws.screen.fb)
