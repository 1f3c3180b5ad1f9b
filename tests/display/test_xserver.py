"""Tests for the simulated window server and its driver dispatch."""

import numpy as np
import pytest

from repro.display import (RecordingDriver, WindowServer, solid_pixels)
from repro.display.driver import InputEvent
from repro.display.font import ADVANCE, GLYPH_HEIGHT
from repro.region import Rect
from repro.video import yuv

RED = (255, 0, 0, 255)
GREEN = (0, 255, 0, 255)


@pytest.fixture
def server():
    return WindowServer(64, 48, driver=RecordingDriver())


class TestDrawableManagement:
    def test_create_and_free_pixmap(self, server):
        pm = server.create_pixmap(16, 16)
        assert not pm.onscreen
        assert pm.id in server.pixmaps
        server.free_pixmap(pm)
        assert pm.id not in server.pixmaps
        assert "destroy_drawable" in server.driver.names()

    def test_cannot_free_screen(self, server):
        with pytest.raises(ValueError):
            server.free_pixmap(server.screen)

    def test_use_after_free_rejected(self, server):
        pm = server.create_pixmap(8, 8)
        server.free_pixmap(pm)
        with pytest.raises(ValueError):
            server.fill_rect(pm, Rect(0, 0, 4, 4), RED)


class TestDriverDispatch:
    def test_fill_reaches_driver_with_clipped_rect(self, server):
        server.fill_rect(server.screen, Rect(-4, -4, 10, 10), RED)
        call = server.driver.calls[-1]
        assert call.name == "solid_fill"
        assert call.rect == Rect(0, 0, 6, 6)

    def test_offscreen_fill_marks_pixmap(self, server):
        pm = server.create_pixmap(16, 16)
        server.fill_rect(pm, Rect(0, 0, 4, 4), RED)
        assert server.driver.calls[-1].drawable_id == pm.id

    def test_fully_clipped_op_skips_driver(self, server):
        server.fill_rect(server.screen, Rect(100, 100, 5, 5), RED)
        assert "solid_fill" not in server.driver.names()

    def test_text_decomposes_into_per_glyph_stipples(self, server):
        server.draw_text(server.screen, 2, 2, "hello", RED)
        names = server.driver.names()
        assert names.count("bitmap_fill") == 5

    def test_image_rasterises_in_scanline_chunks(self, server):
        image = solid_pixels(20, 20, GREEN)
        server.put_image(server.screen, Rect(0, 0, 20, 20), image)
        puts = [c for c in server.driver.calls if c.name == "put_image"]
        # 20 rows / 8-row chunks = 3 driver calls.
        assert len(puts) == 3
        assert sum(c.rect.height for c in puts) == 20

    def test_copy_area_between_drawables(self, server):
        pm = server.create_pixmap(16, 16)
        server.fill_rect(pm, Rect(0, 0, 16, 16), RED)
        server.copy_area(pm, server.screen, Rect(0, 0, 16, 16), 4, 4)
        assert tuple(server.screen.fb.data[4, 4]) == RED
        assert server.driver.calls[-1].name == "copy_area"


class TestRenderingGroundTruth:
    def test_text_changes_pixels(self, server):
        before = server.screen.fb.checksum()
        server.draw_text(server.screen, 2, 2, "Hi", RED)
        assert server.screen.fb.checksum() != before

    def test_put_image_accepts_rgb_and_rgba(self, server):
        rgb = np.full((4, 4, 3), 200, dtype=np.uint8)
        server.put_image(server.screen, Rect(0, 0, 4, 4), rgb)
        assert tuple(server.screen.fb.data[0, 0]) == (200, 200, 200, 255)
        rgba = solid_pixels(4, 4, GREEN)
        server.put_image(server.screen, Rect(8, 0, 4, 4), rgba)
        assert tuple(server.screen.fb.data[0, 8]) == GREEN

    def test_put_image_shape_mismatch(self, server):
        with pytest.raises(ValueError):
            server.put_image(server.screen, Rect(0, 0, 5, 5),
                             solid_pixels(4, 4, GREEN))

    def test_composite_blends(self, server):
        server.fill_rect(server.screen, Rect(0, 0, 4, 4), (0, 0, 0, 255))
        server.composite(server.screen, Rect(0, 0, 2, 2),
                         solid_pixels(2, 2, (255, 255, 255, 128)))
        assert 120 <= server.screen.fb.data[0, 0, 0] <= 136


class TestVideo:
    def _frame(self, w, h, value=128):
        rgb = np.full((h, w, 3), value, dtype=np.uint8)
        return yuv.pack_yv12(*yuv.rgb_to_yv12(rgb))

    def test_stream_lifecycle(self, server):
        stream = server.video_create_stream("YV12", 16, 12,
                                            Rect(0, 0, 32, 24))
        assert stream.stream_id in server.video_streams
        server.video_put_frame(stream, self._frame(16, 12))
        assert stream.frames_put == 1
        server.video_destroy_stream(stream)
        assert stream.stream_id not in server.video_streams
        names = server.driver.names()
        assert names.count("video_setup") == 1
        assert names.count("video_put") == 1
        assert names.count("video_teardown") == 1

    def test_frame_is_scaled_to_dst(self, server):
        stream = server.video_create_stream("YV12", 16, 12,
                                            Rect(0, 0, 64, 48))
        server.video_put_frame(stream, self._frame(16, 12, value=200))
        # Full destination covered with (approximately) the frame colour.
        corner = server.screen.fb.data[47, 63]
        assert abs(int(corner[0]) - 200) < 8

    def test_rejects_unknown_format(self, server):
        with pytest.raises(ValueError):
            server.video_create_stream("RGB24", 16, 12, Rect(0, 0, 4, 4))

    @pytest.mark.parametrize("fmt,w,h", [("YV12", 0, 0), ("YV12", 0, 2),
                                         ("YUY2", 0, 3), ("YUY2", 2, 0)])
    def test_rejects_empty_source(self, server, fmt, w, h):
        """A zero-area source has a legal (empty) frame size, so it
        used to get as far as the scaler and die there."""
        with pytest.raises(ValueError):
            server.video_create_stream(fmt, w, h, Rect(0, 0, 4, 4))
        assert not server.video_streams

    def test_put_on_destroyed_stream_rejected(self, server):
        stream = server.video_create_stream("YV12", 16, 12,
                                            Rect(0, 0, 16, 12))
        server.video_destroy_stream(stream)
        with pytest.raises(ValueError):
            server.video_put_frame(stream, self._frame(16, 12))
        with pytest.raises(ValueError):
            server.video_destroy_stream(stream)

    def test_move_stream(self, server):
        stream = server.video_create_stream("YV12", 16, 12,
                                            Rect(0, 0, 16, 12))
        server.video_move_stream(stream, Rect(8, 8, 32, 24))
        assert stream.dst_rect == Rect(8, 8, 32, 24)


class TestListenersAndInput:
    def test_listener_sees_app_level_commands(self, server):
        seen = []

        class Listener:
            def on_app_command(self, cmd):
                seen.append(cmd.name)

        server.add_listener(Listener())
        server.fill_rect(server.screen, Rect(0, 0, 4, 4), RED)
        server.draw_text(server.screen, 0, 20, "xy", RED)
        assert seen == ["fill_rect", "draw_text"]

    def test_text_listener_gets_one_command_not_per_glyph(self, server):
        seen = []

        class Listener:
            def on_app_command(self, cmd):
                seen.append(cmd)

        server.add_listener(Listener())
        server.draw_text(server.screen, 0, 0, "hello", RED)
        assert len(seen) == 1
        assert seen[0].payload == "hello"
        assert seen[0].rect.height == GLYPH_HEIGHT
        assert seen[0].rect.width == 5 * ADVANCE - 1

    def test_input_reaches_driver(self, server):
        server.inject_input(InputEvent("mouse-click", 10, 10, 0.5))
        assert "input_event" in server.driver.names()
        assert server.op_counts["input"] == 1
