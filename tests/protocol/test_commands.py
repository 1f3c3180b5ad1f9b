"""Tests for the THINC protocol command objects (Table 1 coverage)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import Encoding
from repro.display import Framebuffer, solid_pixels
from repro.protocol import (BitmapCommand, CompositeCommand, CopyCommand,
                            OverwriteClass, PFillCommand, RawCommand,
                            SFillCommand, VideoFrameCommand, decode_command,
                            wire)
from repro.region import Rect
from repro.video import yuv

RED = (255, 0, 0, 255)
GREEN = (0, 255, 0, 255)
BLUE = (0, 0, 255, 255)


def rgba_block(w, h, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(h, w, 4), dtype=np.uint8)


def checker_tile():
    tile = np.zeros((4, 4, 4), dtype=np.uint8)
    tile[:2, :2] = RED
    tile[2:, 2:] = RED
    tile[..., 3] = 255
    return tile


class TestTable1Coverage:
    """Every Table 1 command exists with the documented semantics."""

    def test_all_five_commands_present(self):
        kinds = {cls.kind for cls in (RawCommand, CopyCommand, SFillCommand,
                                      PFillCommand, BitmapCommand)}
        assert kinds == {"raw", "copy", "sfill", "pfill", "bitmap"}

    def test_overwrite_classes(self):
        raw = RawCommand(Rect(0, 0, 2, 2), rgba_block(2, 2))
        copy = CopyCommand(0, 0, Rect(4, 4, 2, 2))
        sfill = SFillCommand(Rect(0, 0, 2, 2), RED)
        pfill = PFillCommand(Rect(0, 0, 8, 8), checker_tile())
        mask = np.ones((2, 2), dtype=bool)
        bmp_opaque = BitmapCommand(Rect(0, 0, 2, 2), mask, RED, GREEN)
        bmp_trans = BitmapCommand(Rect(0, 0, 2, 2), mask, RED, None)
        comp = CompositeCommand(Rect(0, 0, 2, 2), rgba_block(2, 2))
        assert raw.overwrite_class is OverwriteClass.PARTIAL
        assert copy.overwrite_class is OverwriteClass.PARTIAL
        assert sfill.overwrite_class is OverwriteClass.COMPLETE
        assert pfill.overwrite_class is OverwriteClass.PARTIAL
        assert bmp_opaque.overwrite_class is OverwriteClass.PARTIAL
        assert bmp_trans.overwrite_class is OverwriteClass.TRANSPARENT
        assert comp.overwrite_class is OverwriteClass.TRANSPARENT

    def test_transparent_has_empty_opaque_region(self):
        mask = np.ones((2, 2), dtype=bool)
        cmd = BitmapCommand(Rect(0, 0, 2, 2), mask, RED, None)
        assert cmd.opaque_region.is_empty
        opaque = BitmapCommand(Rect(0, 0, 2, 2), mask, RED, GREEN)
        assert opaque.opaque_region.area == 4

    def test_empty_rect_rejected(self):
        with pytest.raises(ValueError):
            SFillCommand(Rect(0, 0, 0, 0), RED)


class TestEncodeDecode:
    def roundtrip(self, cmd):
        return decode_command(cmd.encode())

    def test_raw_roundtrip_compressed(self):
        pixels = rgba_block(7, 5, seed=1)
        cmd = RawCommand(Rect(3, 4, 7, 5), pixels)
        out = self.roundtrip(cmd)
        assert out.dest == cmd.dest
        assert np.array_equal(out.pixels, pixels)

    def test_raw_roundtrip_uncompressed(self):
        pixels = rgba_block(7, 5, seed=2)
        cmd = RawCommand(Rect(0, 0, 7, 5), pixels, Encoding.NONE)
        out = self.roundtrip(cmd)
        assert out.encoding is Encoding.NONE
        assert np.array_equal(out.pixels, pixels)

    def test_copy_roundtrip(self):
        cmd = CopyCommand(10, 20, Rect(30, 40, 5, 6))
        out = self.roundtrip(cmd)
        assert (out.src_x, out.src_y) == (10, 20)
        assert out.dest == Rect(30, 40, 5, 6)

    def test_sfill_roundtrip(self):
        out = self.roundtrip(SFillCommand(Rect(1, 2, 3, 4), BLUE))
        assert out.color == BLUE
        assert out.dest == Rect(1, 2, 3, 4)

    def test_pfill_roundtrip_draws_identically(self):
        cmd = PFillCommand(Rect(3, 5, 16, 12), checker_tile(), origin=(1, 2))
        out = self.roundtrip(cmd)
        fb1, fb2 = Framebuffer(32, 32), Framebuffer(32, 32)
        cmd.apply(fb1)
        out.apply(fb2)
        assert fb1.same_as(fb2)

    def test_bitmap_roundtrip(self):
        rng = np.random.default_rng(5)
        mask = rng.integers(0, 2, size=(6, 11)).astype(bool)
        cmd = BitmapCommand(Rect(2, 2, 11, 6), mask, RED, GREEN)
        out = self.roundtrip(cmd)
        assert np.array_equal(out.mask, mask)
        assert out.fg == RED and out.bg == GREEN

    def test_bitmap_transparent_roundtrip(self):
        mask = np.eye(4, dtype=bool)
        cmd = BitmapCommand(Rect(0, 0, 4, 4), mask, RED, None)
        out = self.roundtrip(cmd)
        assert out.bg is None

    def test_composite_roundtrip(self):
        pixels = rgba_block(4, 4, seed=6)
        out = self.roundtrip(CompositeCommand(Rect(1, 1, 4, 4), pixels))
        assert np.array_equal(out.pixels, pixels)

    def test_vframe_roundtrip(self):
        rgb = np.full((12, 16, 3), 90, dtype=np.uint8)
        data = yuv.pack_yv12(*yuv.rgb_to_yv12(rgb))
        cmd = VideoFrameCommand(3, Rect(0, 0, 32, 24), 16, 12, data)
        out = self.roundtrip(cmd)
        assert out.stream_id == 3
        assert out.yuv_bytes == data

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            decode_command(b"\xee" + b"\x00" * 16)

    def test_wire_size_matches_encoding(self):
        for cmd in [
            RawCommand(Rect(0, 0, 4, 4), rgba_block(4, 4)),
            CopyCommand(0, 0, Rect(4, 4, 2, 2)),
            SFillCommand(Rect(0, 0, 9, 9), RED),
            PFillCommand(Rect(0, 0, 8, 8), checker_tile()),
            BitmapCommand(Rect(0, 0, 4, 4), np.eye(4, dtype=bool), RED),
        ]:
            assert cmd.wire_size() == len(cmd.encode())

    def test_copy_is_tiny_regardless_of_area(self):
        cmd = CopyCommand(0, 0, Rect(0, 0, 500, 400))
        assert cmd.wire_size() < 32


def _one_of_each():
    pixels = rgba_block(6, 5)
    rect = Rect(3, 4, 6, 5)
    return [
        RawCommand(rect, pixels),
        CopyCommand(1, 2, rect),
        SFillCommand(rect, RED),
        PFillCommand(rect, checker_tile()),
        BitmapCommand(rect, pixels[..., 0] > 127, RED, GREEN),
        CompositeCommand(rect, pixels),
        VideoFrameCommand(3, rect, 4, 2, bytes(4 * 2 * 3 // 2)),
    ]


class TestBoundedDecode:
    """A command's frame is its declared rows and payload, exactly."""

    @pytest.mark.parametrize("cmd", _one_of_each(),
                             ids=lambda cmd: cmd.kind)
    def test_bytes_after_the_payload_are_rejected(self, cmd):
        payload = cmd.encode()[1:]
        for junk in (b"\x00", b"\x00" * 8):
            with pytest.raises(wire.TruncatedPayloadError):
                wire.parse_messages(
                    wire.frame_message(cmd.type_id, payload + junk))

    def test_bitmap_has_bg_is_a_flag(self):
        cmd = BitmapCommand(Rect(0, 0, 8, 2), np.eye(2, 8, dtype=bool), RED)
        payload = bytearray(cmd.encode()[1:])
        assert payload[12] == 0  # rect[8] fg[4] has_bg
        payload[12] = 7
        with pytest.raises(wire.FieldRangeError):
            wire.parse_messages(wire.frame_message(cmd.type_id,
                                                   bytes(payload)))


class TestApply:
    def test_each_command_draws_like_its_driver_op(self):
        fb = Framebuffer(32, 32)
        SFillCommand(Rect(0, 0, 8, 8), RED).apply(fb)
        assert tuple(fb.data[0, 0]) == RED
        RawCommand(Rect(8, 0, 4, 4), solid_pixels(4, 4, GREEN)).apply(fb)
        assert tuple(fb.data[0, 8]) == GREEN
        CopyCommand(0, 0, Rect(16, 16, 8, 8)).apply(fb)
        assert tuple(fb.data[16, 16]) == RED
        PFillCommand(Rect(0, 16, 8, 8), checker_tile()).apply(fb)
        BitmapCommand(Rect(24, 24, 4, 4), np.ones((4, 4), bool), BLUE).apply(fb)
        assert tuple(fb.data[24, 24]) == BLUE

    def test_vframe_apply_scales(self):
        rgb = np.full((12, 16, 3), 200, dtype=np.uint8)
        data = yuv.pack_yv12(*yuv.rgb_to_yv12(rgb))
        fb = Framebuffer(64, 48)
        VideoFrameCommand(1, Rect(0, 0, 64, 48), 16, 12, data).apply(fb)
        assert abs(int(fb.data[40, 60, 0]) - 200) < 8


class TestClipping:
    def test_raw_clip_extracts_pixels(self):
        pixels = rgba_block(8, 8, seed=7)
        cmd = RawCommand(Rect(10, 10, 8, 8), pixels)
        parts = cmd.clipped([Rect(12, 12, 2, 2)])
        assert len(parts) == 1
        assert parts[0].dest == Rect(12, 12, 2, 2)
        assert np.array_equal(parts[0].pixels, pixels[2:4, 2:4])

    def test_copy_clip_shifts_source(self):
        cmd = CopyCommand(5, 5, Rect(20, 20, 10, 10))
        (part,) = cmd.clipped([Rect(22, 23, 4, 4)])
        assert (part.src_x, part.src_y) == (7, 8)

    def test_clip_draws_same_pixels_as_original(self):
        """Clipped fragments reproduce the original inside their rects."""
        pixels = rgba_block(8, 8, seed=8)
        cmd = RawCommand(Rect(0, 0, 8, 8), pixels)
        keep = [Rect(0, 0, 3, 8), Rect(5, 2, 3, 4)]
        full = Framebuffer(8, 8)
        cmd.apply(full)
        partial = Framebuffer(8, 8)
        for part in cmd.clipped(keep):
            part.apply(partial)
        for r in keep:
            assert np.array_equal(full.read_pixels(r), partial.read_pixels(r))

    def test_clip_outside_returns_nothing(self):
        cmd = SFillCommand(Rect(0, 0, 4, 4), RED)
        assert cmd.clipped([Rect(10, 10, 2, 2)]) == []

    def test_vframe_clip_is_all_or_nothing(self):
        rgb = np.full((12, 16, 3), 90, dtype=np.uint8)
        data = yuv.pack_yv12(*yuv.rgb_to_yv12(rgb))
        cmd = VideoFrameCommand(1, Rect(0, 0, 32, 24), 16, 12, data)
        assert cmd.clipped([Rect(0, 0, 1, 1)]) == [cmd]
        assert cmd.clipped([Rect(100, 100, 4, 4)]) == []


class TestMerging:
    def test_raw_vertical_merge(self):
        """Scan-line image chunks coalesce into one command."""
        top = RawCommand(Rect(0, 0, 8, 2), rgba_block(8, 2, 1))
        bottom = RawCommand(Rect(0, 2, 8, 2), rgba_block(8, 2, 2))
        merged = top.try_merge(bottom)
        assert merged is not None
        assert merged.dest == Rect(0, 0, 8, 4)
        fb1, fb2 = Framebuffer(8, 8), Framebuffer(8, 8)
        top.apply(fb1)
        bottom.apply(fb1)
        merged.apply(fb2)
        assert fb1.same_as(fb2)

    def test_scan_line_merges_concatenate_once(self):
        """A chain of vertical merges keeps the chunks and joins them
        the first time ``pixels`` is read, not once per merge."""
        chunks = [rgba_block(8, 2, seed) for seed in range(20)]
        merged = RawCommand(Rect(0, 0, 8, 2), chunks[0])
        with mock.patch.object(np, "vstack") as vstack, \
                mock.patch.object(np, "concatenate",
                                  wraps=np.concatenate) as concatenate:
            for row, chunk in enumerate(chunks[1:], 1):
                merged = merged.try_merge(
                    RawCommand(Rect(0, 2 * row, 8, 2), chunk))
            assert concatenate.call_count == 0
            pixels = merged.pixels
            assert merged.pixels is pixels
        assert concatenate.call_count == 1 and not vstack.called
        assert merged.dest == Rect(0, 0, 8, 40)
        assert np.array_equal(pixels, np.concatenate(chunks))

    def test_raw_merge_rejects_gap(self):
        a = RawCommand(Rect(0, 0, 8, 2), rgba_block(8, 2, 1))
        b = RawCommand(Rect(0, 3, 8, 2), rgba_block(8, 2, 2))
        assert a.try_merge(b) is None

    def test_sfill_merge_same_color_only(self):
        a = SFillCommand(Rect(0, 0, 4, 4), RED)
        b = SFillCommand(Rect(4, 0, 4, 4), RED)
        c = SFillCommand(Rect(4, 0, 4, 4), GREEN)
        assert a.try_merge(b).dest == Rect(0, 0, 8, 4)
        assert a.try_merge(c) is None

    def test_bitmap_glyph_merge_across_gap(self):
        """Adjacent transparent glyphs merge across the spacing column."""
        m = np.ones((7, 5), dtype=bool)
        a = BitmapCommand(Rect(0, 0, 5, 7), m, RED, None)
        b = BitmapCommand(Rect(6, 0, 5, 7), m, RED, None)
        merged = a.try_merge(b)
        assert merged is not None
        assert merged.dest == Rect(0, 0, 11, 7)
        # Gap column carries zero bits.
        assert not merged.mask[:, 5].any()

    def test_opaque_bitmap_merge_requires_exact_adjacency(self):
        m = np.ones((4, 4), dtype=bool)
        a = BitmapCommand(Rect(0, 0, 4, 4), m, RED, GREEN)
        gap = BitmapCommand(Rect(5, 0, 4, 4), m, RED, GREEN)
        adjacent = BitmapCommand(Rect(4, 0, 4, 4), m, RED, GREEN)
        assert a.try_merge(gap) is None
        assert a.try_merge(adjacent) is not None

    def test_pfill_merge_same_tile(self):
        tile = checker_tile()
        a = PFillCommand(Rect(0, 0, 8, 4), tile)
        b = PFillCommand(Rect(0, 4, 8, 4), tile)
        merged = a.try_merge(b)
        assert merged.dest == Rect(0, 0, 8, 8)

    def test_cross_kind_merge_refused(self):
        a = SFillCommand(Rect(0, 0, 4, 4), RED)
        b = RawCommand(Rect(4, 0, 4, 4), rgba_block(4, 4))
        assert a.try_merge(b) is None


class TestSplitting:
    def test_raw_split_preserves_output(self):
        pixels = rgba_block(16, 16, seed=9)
        cmd = RawCommand(Rect(0, 0, 16, 16), pixels, Encoding.NONE)
        room = cmd.wire_size() // 3
        head, rest = cmd.split(room, room)
        assert rest is not None
        fb1, fb2 = Framebuffer(16, 16), Framebuffer(16, 16)
        cmd.apply(fb1)
        head.apply(fb2)
        while rest is not None:
            nxt, rest = rest.split(room, room)
            nxt.apply(fb2)
        assert fb1.same_as(fb2)

    def test_small_commands_do_not_split(self):
        cmd = SFillCommand(Rect(0, 0, 100, 100), RED)
        head, rest = cmd.split(4, 4)
        assert head is cmd and rest is None

    def test_single_row_raw_does_not_split(self):
        cmd = RawCommand(Rect(0, 0, 64, 1), rgba_block(64, 1))
        head, rest = cmd.split(10, 10)
        assert head is cmd and rest is None

    @given(st.integers(2, 20), st.integers(2, 20), st.integers(30, 400))
    @settings(max_examples=30, deadline=None)
    def test_split_property(self, w, h, budget):
        cmd = RawCommand(Rect(0, 0, w, h), rgba_block(w, h, seed=w * h),
                         Encoding.NONE)
        head, rest = cmd.split(budget, budget)
        if rest is not None:
            assert head.dest.height + rest.dest.height == h
            assert head.dest.y2 == rest.dest.y


class TestValidation:
    def test_raw_shape_mismatch(self):
        with pytest.raises(ValueError):
            RawCommand(Rect(0, 0, 4, 4), rgba_block(3, 4))

    def test_bitmap_mask_mismatch(self):
        with pytest.raises(ValueError):
            BitmapCommand(Rect(0, 0, 4, 4), np.ones((3, 4), bool), RED)

    def test_copy_negative_source(self):
        with pytest.raises(ValueError):
            CopyCommand(-1, 0, Rect(0, 0, 4, 4))

    def test_pfill_bad_tile(self):
        with pytest.raises(ValueError):
            PFillCommand(Rect(0, 0, 4, 4), np.zeros((2, 2, 3), np.uint8))

    def test_vframe_payload_length_checked(self):
        with pytest.raises(ValueError):
            VideoFrameCommand(1, Rect(0, 0, 4, 4), 16, 12, b"short")

    @pytest.mark.parametrize("fmt,w,h", [("YV12", 0, 0), ("YV12", 0, 2),
                                         ("YUY2", 0, 3), ("YUY2", 2, 0)])
    def test_vframe_empty_source_rejected(self, fmt, w, h):
        """``frame_size`` of a zero-area source is 0, so the length
        check alone lets ``b""`` through to a scaler with no pixel to
        sample."""
        with pytest.raises(ValueError):
            VideoFrameCommand(1, Rect(0, 0, 4, 4), w, h, b"",
                              pixel_format=fmt)
