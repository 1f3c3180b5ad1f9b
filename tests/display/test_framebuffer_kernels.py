"""The packed-pixel Framebuffer kernels against the byte-wise originals.

``fill_rect``, ``tile_rect``, ``stipple_rect`` and ``solid_pixels``
write through a ``uint32`` view of the RGBA buffer; the kernels they
replaced live on in ``tests/display/reference.py``.  Same bytes, same
clipped rect, same ``pixels_drawn`` — for every way a rect, tile or
stipple can hang off, wrap around or alias memory.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.display import Framebuffer, solid_pixels
from repro.region import Rect
from tests.display.reference import (fill_rect_ref, solid_pixels_ref,
                                     stipple_rect_ref, tile_rect_ref)

W, H = 23, 17
colors = st.tuples(*[st.integers(0, 255)] * 4)
# Off all four edges, wholly outside, and larger than the framebuffer.
rects = st.builds(Rect, st.integers(-12, W + 4), st.integers(-12, H + 4),
                  st.integers(1, W + 14), st.integers(1, H + 14))
seeds = st.integers(0, 2**32 - 1)


def pair(seed):
    """Two framebuffers holding the same random pixels."""
    rng = np.random.default_rng(seed)
    new, old = Framebuffer(W, H), Framebuffer(W, H)
    noise = rng.integers(0, 256, (H, W, 4), dtype=np.uint8)
    new.put_pixels(new.bounds, noise)
    old.put_pixels(old.bounds, noise)
    return new, old, rng


def same(new, old):
    assert np.array_equal(new.data, old.data)
    assert new.pixels_drawn == old.pixels_drawn


class TestPackedKernels:
    @given(seeds, rects, colors)
    @settings(max_examples=100, deadline=None)
    def test_fill_rect(self, seed, rect, color):
        new, old, _ = pair(seed)
        assert new.fill_rect(rect, color) == fill_rect_ref(old, rect, color)
        same(new, old)

    @given(seeds, rects, st.integers(1, 9), st.integers(1, 9),
           st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_tile_rect(self, seed, rect, th, tw, origin, strided):
        new, old, rng = pair(seed)
        tile = rng.integers(0, 256, (th * 2, tw * 2, 4), dtype=np.uint8)
        # A non-contiguous tile: every other row and column of a bigger
        # image (1x1 when th == tw == 1).
        tile = tile[::2, ::2] if strided else tile[:th, :tw].copy()
        assert new.tile_rect(rect, tile, origin) \
            == tile_rect_ref(old, rect, tile, origin)
        same(new, old)

    @given(seeds, rects, colors, st.one_of(st.none(), colors),
           st.sampled_from(["rect-sized", "smaller", "larger", "row"]))
    @settings(max_examples=200, deadline=None)
    def test_stipple_rect(self, seed, rect, fg, bg, shape):
        new, old, rng = pair(seed)
        mh, mw = {
            "rect-sized": (rect.height, rect.width),
            # Smaller than the rect: the stipple wraps around.
            "smaller": (max(1, rect.height // 3), max(1, rect.width // 2)),
            # Larger: only its top-left corner is used.
            "larger": (rect.height + 2, rect.width + 3),
            # Right width, wrong height: still wraps vertically.
            "row": (1, rect.width),
        }[shape]
        mask = rng.integers(0, 2, (mh, mw)).astype(bool)
        assert new.stipple_rect(rect, mask, fg, bg) \
            == stipple_rect_ref(old, rect, mask, fg, bg)
        same(new, old)

    def test_wraparound_stipple_tiles_across_the_rect(self):
        fb = Framebuffer(8, 4)
        fb.stipple_rect(Rect(0, 0, 8, 4), np.array([[True, False]]),
                        (9, 9, 9, 255), (1, 1, 1, 255))
        assert (fb.data[:, 0::2, 0] == 9).all()
        assert (fb.data[:, 1::2, 0] == 1).all()

    def test_stipple_accepts_integer_masks_and_strided_views(self):
        new, old, rng = pair(3)
        wide = rng.integers(0, 2, (7, 40)).astype(np.uint8)
        mask = wide[:, 3:33:2]  # a non-contiguous uint8 view
        rect = Rect(4, 5, 15, 7)
        new.stipple_rect(rect, mask, (1, 2, 3, 4))
        stipple_rect_ref(old, rect, mask, (1, 2, 3, 4))
        same(new, old)


class TestByteLayout:
    def test_channel_order_in_data_is_rgba(self):
        fb = Framebuffer(4, 3, fill=(1, 2, 3, 4))
        assert fb.data.shape == (3, 4, 4) and fb.data.dtype == np.uint8
        assert fb.data[0, 0].tolist() == [1, 2, 3, 4]
        fb.fill_rect(Rect(1, 1, 2, 1), (10, 20, 30, 40))
        assert fb.data[1, 1].tolist() == [10, 20, 30, 40]
        assert fb.data.tobytes()[:4] == bytes([1, 2, 3, 4])
        fb.stipple_rect(Rect(0, 0, 1, 1), np.ones((1, 1), bool),
                        (5, 6, 7, 8))
        assert fb.data.tobytes()[:4] == bytes([5, 6, 7, 8])
        tile = np.array([[[11, 12, 13, 14]]], dtype=np.uint8)
        fb.tile_rect(Rect(3, 2, 1, 1), tile)
        assert fb.data.tobytes()[-4:] == bytes([11, 12, 13, 14])

    def test_writes_through_data_and_the_packed_view_agree(self):
        fb = Framebuffer(4, 3)
        fb.data[2, 3] = (7, 8, 9, 10)       # tests poke .data directly
        fb.fill_rect(Rect(0, 0, 1, 1), (1, 1, 1, 1))
        assert fb.data[2, 3].tolist() == [7, 8, 9, 10]
        assert fb.read_pixels(Rect(0, 0, 1, 1))[0, 0].tolist() == [1, 1, 1, 1]
        assert fb.clone().same_as(fb)

    @given(st.integers(1, 9), st.integers(1, 9), colors)
    def test_solid_pixels(self, width, height, color):
        block = solid_pixels(width, height, color)
        assert np.array_equal(block, solid_pixels_ref(width, height, color))
        assert block.shape == (height, width, 4)
        assert block.dtype == np.uint8
        assert block.flags["C_CONTIGUOUS"] and block.flags["WRITEABLE"]
        block[0, 0] = (1, 2, 3, 4)  # callers paint patterns into it
        assert block[0, 0].tolist() == [1, 2, 3, 4]
