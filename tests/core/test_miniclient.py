"""The minimal client must agree pixel-for-pixel with the full client."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import THINCClient, THINCServer
from repro.core.miniclient import MiniClient
from repro.display import WindowServer, solid_pixels
from repro.net import Connection, EventLoop, LAN_DESKTOP
from repro.region import Rect
from repro.video.stream import SyntheticVideoClip

WHITE = (255, 255, 255, 255)
RED = (200, 40, 40, 255)


def rig(width=96, height=64):
    loop = EventLoop()
    server = THINCServer(loop, width, height)
    ws = WindowServer(width, height, driver=server.driver, clock=loop.clock)
    conn_full = Connection(loop, LAN_DESKTOP)
    conn_mini = Connection(loop, LAN_DESKTOP)
    server.attach_client(conn_full)
    server.attach_client(conn_mini)
    full = THINCClient(loop, conn_full)
    mini = MiniClient(conn_mini)
    return loop, ws, full, mini


def screens_match(ws, full, mini):
    return (np.array_equal(mini.pixels, full.fb.data)
            and full.fb.same_as(ws.screen.fb))


class TestEquivalence:
    def test_desktop_drawing(self):
        loop, ws, full, mini = rig()
        ws.fill_rect(ws.screen, ws.screen.bounds, WHITE)
        ws.draw_text(ws.screen, 4, 4, "mini client", (0, 0, 0, 255))
        tile = solid_pixels(4, 4, (220, 230, 240, 255))
        ws.fill_tiled(ws.screen, Rect(0, 40, 96, 24), tile)
        ws.copy_area(ws.screen, ws.screen, Rect(0, 0, 30, 20), 50, 30)
        ws.composite(ws.screen, Rect(10, 20, 16, 16),
                     solid_pixels(16, 16, (255, 0, 0, 120)))
        loop.run_until_idle(max_time=5)
        assert screens_match(ws, full, mini)

    def test_offscreen_replay(self):
        loop, ws, full, mini = rig()
        page = ws.create_pixmap(60, 40)
        ws.fill_rect(page, page.bounds, (240, 240, 255, 255))
        ws.draw_text(page, 2, 2, "double buffered", (10, 10, 10, 255))
        rng = np.random.default_rng(3)
        ws.put_image(page, Rect(4, 16, 30, 18),
                     rng.integers(0, 256, (18, 30, 4), dtype=np.uint8))
        ws.copy_area(page, ws.screen, page.bounds, 10, 10)
        loop.run_until_idle(max_time=5)
        assert screens_match(ws, full, mini)

    def test_video_playback(self):
        loop, ws, full, mini = rig(width=128, height=96)
        clip = SyntheticVideoClip(width=32, height=24, fps=24, duration=0.25)
        stream = ws.video_create_stream("YV12", 32, 24, Rect(0, 0, 128, 96))

        def put(i):
            if i < clip.frame_count:
                ws.video_put_frame(stream, clip.yv12_frame(i))
                loop.schedule(clip.frame_interval, lambda: put(i + 1))
            else:
                ws.video_destroy_stream(stream)

        loop.schedule(0, lambda: put(0))
        loop.run_until_idle(max_time=10)
        assert screens_match(ws, full, mini)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_random_workloads(self, seed):
        rng = np.random.default_rng(seed)
        loop, ws, full, mini = rig(width=64, height=48)
        # The full client holds each frame as an overlay; the mini
        # client paints it at once, so it checks every interleaving.
        stream = ws.video_create_stream("YV12", 8, 6, Rect(8, 8, 24, 18))
        for _ in range(15):
            op = rng.integers(0, 6)
            x, y = int(rng.integers(0, 48)), int(rng.integers(0, 32))
            w, h = int(rng.integers(1, 14)), int(rng.integers(1, 14))
            color = tuple(int(v) for v in rng.integers(0, 256, 3)) + (255,)
            if op == 0:
                ws.fill_rect(ws.screen, Rect(x, y, w, h), color)
            elif op == 1:
                ws.put_image(ws.screen, Rect(x, y, w, h),
                             rng.integers(0, 256, (h, w, 4),
                                          dtype=np.uint8))
            elif op == 2:
                ws.draw_text(ws.screen, x, y, "mc", color)
            elif op == 3:
                ws.copy_area(ws.screen, ws.screen, Rect(0, 0, 20, 20), x, y)
            elif op == 4:
                ws.video_put_frame(stream, rng.integers(
                    0, 256, 72, dtype=np.uint8).tobytes())
            else:
                ws.video_move_stream(stream, Rect(x, y, w, h))
            if rng.integers(0, 3) == 0:   # let some batches land apart
                loop.run_until(loop.now + 0.01)
        loop.run_until_idle(max_time=10)
        assert screens_match(ws, full, mini)

    def test_implementation_is_actually_small(self):
        """The paper's simplicity claim, kept honest by a line count."""
        import inspect

        import repro.core.miniclient as module

        source = inspect.getsource(module)
        code_lines = [l for l in source.splitlines()
                      if l.strip() and not l.strip().startswith(("#", '"'))]
        assert len(code_lines) < 90
