"""Property tests for the offscreen machinery (Section 4.1).

The central contract: for any sequence of drawing into a pixmap, a
copy-out must reproduce the pixmap's pixels exactly — via replayed
semantic commands where the queue describes the content, and via RAW
fallback where it does not (undescribed base, tainted blends).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import Encoding
from repro.core.translation import THINCDriver
from repro.display import Framebuffer, WindowServer
from repro.region import Rect


class QueueSink:
    """Collects submitted commands for direct replay."""

    def __init__(self):
        self.commands = []

    def submit(self, c):
        self.commands.append(c)

    def cursor_set(self, *a):
        pass

    def video_setup(self, *a):
        pass

    def video_move(self, *a):
        pass

    def video_teardown(self, *a):
        pass

    def note_input(self, *a):
        pass


def random_offscreen_ops(ws, pm, rng, count=12):
    """Draw a random mix into the pixmap (including transparent ops)."""
    for _ in range(count):
        op = rng.integers(0, 5)
        x, y = int(rng.integers(0, 24)), int(rng.integers(0, 24))
        w, h = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        color = tuple(int(v) for v in rng.integers(0, 256, 3)) + (255,)
        if op == 0:
            ws.fill_rect(pm, Rect(x, y, w, h), color)
        elif op == 1:
            ws.put_image(pm, Rect(x, y, w, h),
                         rng.integers(0, 256, (h, w, 4), dtype=np.uint8))
        elif op == 2:
            ws.draw_text(pm, x, y, "pq", color)
        elif op == 3:
            ws.composite(pm, Rect(x, y, w, h),
                         rng.integers(0, 256, (h, w, 4), dtype=np.uint8))
        else:
            ws.fill_tiled(pm, Rect(x, y, w, h),
                          rng.integers(0, 256, (3, 3, 4), dtype=np.uint8))


class TestCopyOutProperty:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_copy_out_reproduces_pixmap_pixels(self, seed):
        rng = np.random.default_rng(seed)
        sink = QueueSink()
        ws = WindowServer(64, 48, driver=THINCDriver(sink,
                                                     compress_raw=False))
        pm = ws.create_pixmap(32, 32)
        random_offscreen_ops(ws, pm, rng)
        sink.commands.clear()  # nothing onscreen yet anyway

        src = Rect(int(rng.integers(0, 16)), int(rng.integers(0, 16)),
                   int(rng.integers(4, 16)), int(rng.integers(4, 16)))
        dst = (int(rng.integers(0, 30)), int(rng.integers(0, 14)))
        ws.copy_area(pm, ws.screen, src, *dst)

        fb = Framebuffer(64, 48)
        for cmd in sink.commands:
            cmd.apply(fb)
        expected = pm.fb.read_pixels(src)
        got = fb.read_pixels(Rect(dst[0], dst[1], src.width, src.height))
        assert np.array_equal(got, expected)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_repeated_copies_from_one_source(self, seed):
        """A region can source many copies; the queue must survive."""
        rng = np.random.default_rng(seed)
        sink = QueueSink()
        ws = WindowServer(96, 48, driver=THINCDriver(sink,
                                                     compress_raw=False))
        pm = ws.create_pixmap(24, 24)
        random_offscreen_ops(ws, pm, rng, count=8)
        for i in range(3):
            sink.commands.clear()
            ws.copy_area(pm, ws.screen, pm.bounds, 24 * i, 12)
            fb = Framebuffer(96, 48)
            for cmd in sink.commands:
                cmd.apply(fb)
            got = fb.read_pixels(Rect(24 * i, 12, 24, 24))
            assert np.array_equal(got, pm.fb.data)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_pixmap_hierarchies(self, seed):
        """Small pixmaps composed into larger ones then flipped out."""
        rng = np.random.default_rng(seed)
        sink = QueueSink()
        ws = WindowServer(64, 48, driver=THINCDriver(sink,
                                                     compress_raw=False))
        small = ws.create_pixmap(12, 12)
        big = ws.create_pixmap(32, 32)
        random_offscreen_ops(ws, small, rng, count=5)
        ws.fill_rect(big, big.bounds,
                     tuple(int(v) for v in rng.integers(0, 256, 3)) + (255,))
        ws.copy_area(small, big, small.bounds,
                     int(rng.integers(0, 20)), int(rng.integers(0, 20)))
        random_offscreen_ops(ws, big, rng, count=4)
        ws.copy_area(big, ws.screen, big.bounds, 8, 8)
        fb = Framebuffer(64, 48)
        for cmd in sink.commands:
            cmd.apply(fb)
        assert np.array_equal(fb.read_pixels(Rect(8, 8, 32, 32)),
                              big.fb.data)


class TestStarvationBehaviour:
    """SRSF can delay large commands behind a stream of small ones —
    the known trade-off of size-based scheduling.  The delivery layer
    bounds the damage: eviction keeps the large command *current*, and
    the moment small traffic pauses it drains.  This test documents
    that behaviour."""

    def test_large_command_drains_when_small_traffic_pauses(self):
        from repro.core import ClientBuffer
        from repro.protocol.commands import RawCommand, SFillCommand

        class Writer:
            def __init__(self):
                self.room = 0
                self.sent = []

            def writable_bytes(self):
                return self.room

            capacity = writable_bytes

            def write(self, data):
                self.room -= len(data)
                self.sent.append(len(data))

        rng = np.random.default_rng(0)
        buf = ClientBuffer()
        big = RawCommand(Rect(0, 0, 64, 64),
                         rng.integers(0, 256, (64, 64, 4), dtype=np.uint8),
                         Encoding.NONE)
        buf.add(big)
        writer = Writer()
        # Small updates keep arriving and the room is always just
        # enough for them: the big command waits (SRSF).
        for i in range(10):
            small = SFillCommand(Rect(200 + (i % 10), 0, 4, 4),
                                 (i, i, i, 255))
            buf.add(small)
            writer.room += small.wire_size() + 8
            buf.flush(writer)
        assert buf.pending_commands() >= 1  # the big one still waits
        # Traffic pauses: the backlog drains fully.
        for _ in range(200):
            if buf.pending_commands() == 0:
                break
            writer.room += 4096
            buf.flush(writer)
        assert buf.pending_commands() == 0
