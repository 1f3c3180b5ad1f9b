"""Tests for viewport zoom (Section 6's zoom-in interaction)."""

import numpy as np
import pytest

from repro.core.resize import DisplayScaler
from repro.protocol.commands import SFillCommand
from repro.region import Rect

from tests.helpers import make_rig

RED = (255, 0, 0, 255)
GREEN = (0, 200, 0, 255)
BLUE = (0, 0, 255, 255)


def rig(viewport=(64, 48)):
    loop, conn, mon, server, ws, client = make_rig(128, 96, viewport=viewport)
    return loop, mon, server, ws, client


class TestScalerView:
    def test_view_rect_maps_into_viewport(self):
        scaler = DisplayScaler((128, 96), (64, 48),
                               view_rect=Rect(64, 48, 64, 48))
        (out,) = scaler.scale_command(
            SFillCommand(Rect(64, 48, 64, 48), RED))
        assert out.dest == Rect(0, 0, 64, 48)

    def test_commands_outside_view_dropped(self):
        scaler = DisplayScaler((128, 96), (64, 48),
                               view_rect=Rect(64, 48, 64, 48))
        assert scaler.scale_command(
            SFillCommand(Rect(0, 0, 32, 32), RED)) == []

    def test_straddling_command_clipped_to_view(self):
        scaler = DisplayScaler((128, 96), (64, 48),
                               view_rect=Rect(64, 48, 64, 48))
        (out,) = scaler.scale_command(
            SFillCommand(Rect(0, 0, 128, 96), RED))
        assert out.dest == Rect(0, 0, 64, 48)

    def test_zoom_in_magnifies(self):
        # 32x24 view into a 64x48 viewport: 2x magnification.
        scaler = DisplayScaler((128, 96), (64, 48),
                               view_rect=Rect(0, 0, 32, 24))
        (out,) = scaler.scale_command(SFillCommand(Rect(4, 4, 8, 8), RED))
        assert out.dest == Rect(8, 8, 16, 16)

    def test_empty_view_rejected(self):
        with pytest.raises(ValueError):
            DisplayScaler((128, 96), (64, 48),
                          view_rect=Rect(0, 0, 0, 0))

    def test_video_crop_covers_a_fractional_source_edge(self, monkeypatch):
        """A 176x144 source shown 352x288 (fx = fy = 1/2) under a
        101x75 view: the visible area ends at source 50.5 x 37.5, so
        the crop must reach column 51 and row 38."""
        from repro.core import resize
        from repro.protocol import VideoFrameCommand
        from repro.video import yuv

        cropped = []
        inner = resize.resample
        monkeypatch.setattr(
            resize, "resample",
            lambda px, w, h: cropped.append(px.shape) or inner(px, w, h))
        scaler = DisplayScaler((352, 288), (101, 75),
                               view_rect=Rect(0, 0, 101, 75))
        rgb = np.full((144, 176, 3), 120, dtype=np.uint8)
        data = yuv.pack_yv12(*yuv.rgb_to_yv12(rgb))
        (out,) = scaler.scale_command(
            VideoFrameCommand(1, Rect(0, 0, 352, 288), 176, 144, data))
        assert cropped == [(38, 51, 3)]
        assert out.dest == Rect(0, 0, 101, 75)

    def test_map_point(self):
        scaler = DisplayScaler((128, 96), (64, 48),
                               view_rect=Rect(64, 48, 64, 48))
        assert scaler.map_point(64, 48) == (0, 0)
        assert scaler.map_point(96, 72) == (32, 24)


class TestZoomProtocol:
    def test_zoom_in_shows_the_region_enlarged(self):
        loop, mon, server, ws, client = rig()
        ws.fill_rect(ws.screen, ws.screen.bounds, BLUE)
        ws.fill_rect(ws.screen, Rect(64, 48, 64, 48), RED)
        loop.run_until_idle(max_time=5)
        client.request_zoom(Rect(64, 48, 64, 48))
        loop.run_until_idle(max_time=5)
        # The whole viewport now shows the red quadrant 1:1.
        assert tuple(client.fb.data[10, 10]) == RED
        assert tuple(client.fb.data[40, 60]) == RED

    def test_updates_track_the_zoomed_view(self):
        loop, mon, server, ws, client = rig()
        ws.fill_rect(ws.screen, ws.screen.bounds, BLUE)
        loop.run_until_idle(max_time=5)
        client.request_zoom(Rect(0, 0, 64, 48))
        loop.run_until_idle(max_time=5)
        # A change inside the view arrives magnified 1:1...
        ws.fill_rect(ws.screen, Rect(8, 8, 8, 8), GREEN)
        # ...a change outside the view never travels.
        ws.fill_rect(ws.screen, Rect(100, 80, 16, 8), RED)
        loop.run_until_idle(max_time=5)
        assert tuple(client.fb.data[10, 10]) == GREEN
        assert tuple(client.fb.data[40, 60]) == BLUE

    def test_zoom_out_restores_full_desktop(self):
        loop, mon, server, ws, client = rig()
        ws.fill_rect(ws.screen, ws.screen.bounds, BLUE)
        ws.fill_rect(ws.screen, Rect(0, 0, 64, 48), RED)
        loop.run_until_idle(max_time=5)
        client.request_zoom(Rect(0, 0, 64, 48))
        loop.run_until_idle(max_time=5)
        client.request_zoom(Rect(0, 0, 0, 0))  # empty = zoom out
        loop.run_until_idle(max_time=5)
        # Top-left quadrant red, elsewhere blue, at half scale.
        assert tuple(client.fb.data[10, 10]) == RED
        assert tuple(client.fb.data[40, 60]) == BLUE

    def test_zoomed_video_is_cropped(self):
        from repro.video.stream import SyntheticVideoClip

        loop, mon, server, ws, client = rig()
        client.request_zoom(Rect(0, 0, 64, 48))
        loop.run_until_idle(max_time=5)
        clip = SyntheticVideoClip(width=32, height=24, fps=12,
                                  duration=0.2)
        stream = ws.video_create_stream("YV12", 32, 24,
                                        Rect(0, 0, 128, 96))
        ws.video_put_frame(stream, clip.yv12_frame(0))
        ws.video_destroy_stream(stream)
        loop.run_until_idle(max_time=5)
        stats = client.video_stats[stream.stream_id]
        assert len(stats.arrivals) == 1
        # The client sees the top-left quarter of the frame, enlarged:
        # compare against the ground-truth screen region.
        from repro.core.resize import resample

        expected = resample(ws.screen.fb.read_pixels(Rect(0, 0, 64, 48)),
                            64, 48)
        err = np.abs(expected[..., :3].astype(int)
                     - client.fb.data[..., :3].astype(int))
        assert err.mean() < 30
