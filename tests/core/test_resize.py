"""Tests for server-side display scaling (Section 6).

The resampling kernel itself is checked in ``test_resize_kernel.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import Encoding
from repro.core.resize import DisplayScaler, resample, scale_rect
from repro.protocol import (BitmapCommand, CompositeCommand, CopyCommand,
                            PFillCommand, RawCommand, SFillCommand,
                            VideoFrameCommand)
from repro.region import Rect
from repro.video import yuv

RED = (255, 0, 0, 255)
GREEN = (0, 255, 0, 255)


class TestResample:
    def test_identity(self):
        img = np.arange(4 * 4 * 4, dtype=np.uint8).reshape(4, 4, 4)
        assert np.array_equal(resample(img, 4, 4), img)

    def test_upscale_dimensions(self):
        img = np.zeros((3, 5, 4), dtype=np.uint8)
        assert resample(img, 13, 9).shape == (9, 13, 4)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resample(np.zeros((4, 4, 4), np.uint8), 0, 4)


class TestScaleRect:
    def test_half_scale(self):
        assert scale_rect(Rect(0, 0, 10, 10), 0.5, 0.5) == Rect(0, 0, 5, 5)

    def test_never_vanishes(self):
        r = scale_rect(Rect(100, 100, 1, 1), 0.1, 0.1)
        assert r.width >= 1 and r.height >= 1

    @given(st.integers(0, 500), st.integers(0, 500),
           st.integers(1, 100), st.integers(1, 100))
    @settings(max_examples=50, deadline=None)
    def test_adjacent_rects_stay_gap_free(self, x, y, w, h):
        """Two rects sharing an edge scale to rects that still cover
        the shared boundary (no seams on the scaled display)."""
        sx = sy = 0.3125  # 320/1024
        a = Rect(x, y, w, h)
        b = Rect(x + w, y, w, h)  # right neighbour
        sa, sb = scale_rect(a, sx, sy), scale_rect(b, sx, sy)
        assert sa.x2 >= sb.x  # no gap


class TestPerCommandPolicy:
    """The Section 6 table: what happens to each command type."""

    def setup_method(self):
        self.scaler = DisplayScaler((1024, 768), (320, 240))

    def test_identity_scaler_passthrough(self):
        scaler = DisplayScaler((640, 480), (640, 480))
        cmd = SFillCommand(Rect(0, 0, 10, 10), RED)
        assert scaler.scale_command(cmd) == [cmd]
        assert scaler.identity

    def test_sfill_sent_unmodified_but_rescaled_coords(self):
        (out,) = self.scaler.scale_command(
            SFillCommand(Rect(0, 0, 1024, 768), RED))
        assert isinstance(out, SFillCommand)
        assert out.dest == Rect(0, 0, 320, 240)
        assert out.color == RED

    def test_raw_resampled_saves_bandwidth(self):
        rng = np.random.default_rng(2)
        pixels = rng.integers(0, 256, (192, 256, 4), dtype=np.uint8)
        cmd = RawCommand(Rect(0, 0, 256, 192), pixels, Encoding.NONE)
        (out,) = self.scaler.scale_command(cmd)
        assert isinstance(out, RawCommand)
        assert out.wire_size() < cmd.wire_size() / 4

    def test_pfill_tile_resized(self):
        tile = np.full((16, 16, 4), 99, dtype=np.uint8)
        cmd = PFillCommand(Rect(0, 0, 512, 512), tile)
        (out,) = self.scaler.scale_command(cmd)
        assert isinstance(out, PFillCommand)
        assert out.tile.shape[0] == 5  # 16 * 0.3125
        assert out.tile.shape[1] == 5

    def test_opaque_bitmap_converted_to_raw(self):
        mask = np.eye(32, dtype=bool)
        cmd = BitmapCommand(Rect(0, 0, 32, 32), mask, RED, GREEN)
        (out,) = self.scaler.scale_command(cmd)
        assert isinstance(out, RawCommand)
        # Anti-aliased: intermediate values exist along the diagonal.
        uniques = np.unique(out.pixels[..., 0])
        assert len(uniques) > 2

    def test_transparent_bitmap_becomes_composite(self):
        mask = np.ones((16, 16), dtype=bool)
        mask[:, ::2] = False
        cmd = BitmapCommand(Rect(0, 0, 16, 16), mask, RED, None)
        (out,) = self.scaler.scale_command(cmd)
        assert isinstance(out, CompositeCommand)
        # Alpha carries the coverage.
        assert 0 < out.pixels[..., 3].mean() < 255

    def test_copy_coordinates_scaled(self):
        cmd = CopyCommand(512, 384, Rect(0, 0, 128, 128))
        (out,) = self.scaler.scale_command(cmd)
        assert isinstance(out, CopyCommand)
        assert (out.src_x, out.src_y) == (160, 120)

    def test_video_resampled_and_reencoded(self):
        rgb = np.full((240, 352, 3), 120, dtype=np.uint8)
        data = yuv.pack_yv12(*yuv.rgb_to_yv12(rgb))
        cmd = VideoFrameCommand(1, Rect(0, 0, 1024, 768), 352, 240, data,
                                frame_no=7)
        (out,) = self.scaler.scale_command(cmd)
        assert isinstance(out, VideoFrameCommand)
        assert out.frame_no == 7
        # Source dims shrink with the viewport ratio (352 * 0.3125 = 110).
        assert out.src_width == 110 and out.src_width % 2 == 0
        assert len(out.yuv_bytes) < len(data) / 4

    def test_command_off_viewport_dropped(self):
        # scale_rect clamps into the client viewport; a rect at the far
        # bottom-right still lands inside, so nothing is dropped here —
        # but a rect fully outside a *clipped* viewport is.
        clipping = DisplayScaler((1024, 768), (320, 240))
        out = clipping.scale_command(
            SFillCommand(Rect(1020, 764, 4, 4), RED))
        assert len(out) == 1  # scaled into the last client pixels

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            DisplayScaler((0, 768), (320, 240))


class TestScaledDrawingConsistency:
    def test_scaled_commands_roughly_match_scaled_screen(self):
        """Drawing scaled commands approximates resampling the screen."""
        from repro.display import Framebuffer

        rng = np.random.default_rng(3)
        server_fb = Framebuffer(64, 64)
        client_fb = Framebuffer(16, 16)
        scaler = DisplayScaler((64, 64), (16, 16))
        cmds = [
            SFillCommand(Rect(0, 0, 64, 64), (200, 200, 200, 255)),
            RawCommand(Rect(8, 8, 32, 32),
                       rng.integers(0, 256, (32, 32, 4), dtype=np.uint8),
                       Encoding.NONE),
            SFillCommand(Rect(40, 40, 16, 16), RED),
        ]
        for cmd in cmds:
            cmd.apply(server_fb)
            for scaled in scaler.scale_command(cmd):
                scaled.apply(client_fb)
        reference = resample(server_fb.data, 16, 16)
        # Mean absolute error should be modest (edges differ slightly).
        err = np.abs(reference.astype(int) - client_fb.data.astype(int))
        assert err.mean() < 40
