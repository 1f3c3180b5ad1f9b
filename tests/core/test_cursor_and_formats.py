"""Tests for cursor support and the YUY2 video pixel format."""

import numpy as np
import pytest

from repro.region import Rect
from repro.video import yuv
from repro.video.stream import SyntheticVideoClip

from tests.helpers import make_rig

WHITE = (255, 255, 255, 255)


def rig(viewport=None, size=(96, 64)):
    loop, conn, mon, server, ws, client = make_rig(*size, viewport=viewport)
    return loop, server, ws, client


def arrow_cursor():
    img = np.zeros((12, 8, 4), dtype=np.uint8)
    for i in range(8):
        img[i, : i + 1] = (0, 0, 0, 255)
    return img


class TestCursor:
    def test_shape_pushed_to_client(self):
        loop, server, ws, client = rig()
        ws.set_cursor(arrow_cursor(), hotspot=(0, 0))
        loop.run_until_idle(max_time=5)
        assert client.cursor_image is not None
        assert client.cursor_image.shape == (12, 8, 4)
        assert client.cursor_hotspot == (0, 0)

    def test_position_tracked_locally(self):
        loop, server, ws, client = rig()
        client.send_input("mouse-move", 40, 30)
        assert client.cursor_pos == (40, 30)  # before any network events

    def test_cursor_never_touches_framebuffer(self):
        loop, server, ws, client = rig()
        ws.fill_rect(ws.screen, ws.screen.bounds, WHITE)
        ws.set_cursor(arrow_cursor())
        loop.run_until_idle(max_time=5)
        assert client.fb.same_as(ws.screen.fb)  # fb is cursor-free

    def test_cursor_scaled_for_small_viewport(self):
        loop, server, ws, client = rig(viewport=(48, 32))
        ws.set_cursor(arrow_cursor(), hotspot=(4, 6))
        loop.run_until_idle(max_time=5)
        assert client.cursor_image.shape[0] <= 8
        hx, hy = client.cursor_hotspot
        assert hx <= 2 and hy <= 3

    def test_validation(self):
        loop, server, ws, client = rig()
        with pytest.raises(ValueError):
            ws.set_cursor(np.zeros((4, 4, 3), np.uint8))
        with pytest.raises(ValueError):
            ws.set_cursor(np.zeros((100, 100, 4), np.uint8))
        with pytest.raises(ValueError):
            ws.set_cursor(arrow_cursor(), hotspot=(50, 0))


class TestYUY2:
    def test_frame_size_is_16bpp(self):
        assert yuv.yuy2_frame_size(352, 240) == 352 * 240 * 2

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError):
            yuv.yuy2_frame_size(3, 4)

    def test_roundtrip_on_flat_blocks(self):
        rng = np.random.default_rng(1)
        small = rng.integers(0, 256, (4, 4, 3), dtype=np.uint8)
        rgb = np.repeat(np.repeat(small, 2, 0), 2, 1)
        out = yuv.yuy2_to_rgb(yuv.rgb_to_yuy2(rgb), 8, 8)
        assert np.max(np.abs(out.astype(int) - rgb.astype(int))) <= 6

    def test_422_retains_more_chroma_than_420(self):
        """Vertical colour stripes: YUY2's full vertical chroma wins."""
        rgb = np.zeros((8, 8, 3), dtype=np.uint8)
        rgb[::2] = (255, 0, 0)
        rgb[1::2] = (0, 0, 255)
        via_yuy2 = yuv.yuy2_to_rgb(yuv.rgb_to_yuy2(rgb), 8, 8)
        via_yv12 = yuv.yv12_to_rgb(*yuv.rgb_to_yv12(rgb))
        err_422 = np.abs(via_yuy2.astype(int) - rgb.astype(int)).mean()
        err_420 = np.abs(via_yv12.astype(int) - rgb.astype(int)).mean()
        assert err_422 < err_420

    def test_format_registry_dispatch(self):
        rgb = np.full((8, 8, 3), 120, dtype=np.uint8)
        for fmt in yuv.FORMATS:
            data = yuv.encode_frame(fmt, rgb)
            assert len(data) == yuv.frame_size(fmt, 8, 8)
            out = yuv.decode_frame(fmt, data, 8, 8)
            assert out.shape == (8, 8, 4)
            assert np.max(np.abs(out[..., :3].astype(int) - 120)) <= 4
            assert (out[..., 3] == 255).all()
        with pytest.raises(ValueError):
            yuv.frame_size("RGB24", 8, 8)

    def test_yuy2_stream_end_to_end_pixel_exact(self):
        loop, server, ws, client = rig(size=(128, 96))
        clip = SyntheticVideoClip(width=32, height=24, fps=12, duration=0.25)
        stream = ws.video_create_stream("YUY2", 32, 24, Rect(0, 0, 128, 96))

        def put(i):
            if i < clip.frame_count:
                ws.video_put_frame(stream, clip.encoded_frame(i, "YUY2"))
                loop.schedule(clip.frame_interval, lambda: put(i + 1))
            else:
                ws.video_destroy_stream(stream)

        loop.schedule(0, lambda: put(0))
        loop.run_until_idle(max_time=10)
        assert len(client.video_stats[stream.stream_id].arrivals) == \
            clip.frame_count
        assert client.fb.same_as(ws.screen.fb)

    def test_yuy2_scaled_session(self):
        loop, server, ws, client = rig(viewport=(64, 48), size=(128, 96))
        clip = SyntheticVideoClip(width=32, height=24, fps=12, duration=0.1)
        stream = ws.video_create_stream("YUY2", 32, 24, Rect(0, 0, 128, 96))
        ws.video_put_frame(stream, clip.encoded_frame(0, "YUY2"))
        loop.run_until_idle(max_time=5)
        assert len(client.video_stats[stream.stream_id].arrivals) == 1
