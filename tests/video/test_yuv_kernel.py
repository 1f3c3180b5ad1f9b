"""The integer YUV -> RGBA kernel and the packed scaler against the
float originals in ``tests/video/reference.py``.

The decode claim is exhaustive, not sampled: every one of the 2**24
(Y, U, V) triples, through both block shapes (YV12's 2x2, YUY2's 1x2),
must come out byte-for-byte what the float formula gives — including
the rounding ties the tables have to special-case.  A hypothesis
property adds what one sweep geometry cannot: random frame sizes, odd
luma included, with tie pairs at random chroma positions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.video import yuv
from tests.video.reference import (scale_rgb_ref, yuy2_to_rgb_ref,
                                   yv12_to_rgb_ref)

# One 512x128 image holds every (Y, V) pair once: pixel (r, c) has
# Y = 2r + (c & 1) and V = c // 2.  In YV12 that is chroma column j
# carrying V = j under 2x2 blocks that walk Y; in YUY2 it is row r's
# macropixels Y0 = 2r, Y1 = 2r + 1 with V = j.  U is the sweep variable.
SWEEP_W, SWEEP_H = 512, 128
SWEEP_Y = (2 * np.arange(SWEEP_H)[:, None]
           + (np.arange(SWEEP_W) & 1)[None, :]).astype(np.uint8)
SWEEP_V = np.arange(256, dtype=np.uint8)


def _yv12_sweep(u):
    v = np.broadcast_to(SWEEP_V, (SWEEP_H // 2, 256))
    return SWEEP_Y, v, np.full(v.shape, u, dtype=np.uint8)


def _yuy2_sweep(u):
    packed = np.empty((SWEEP_H, 256, 4), dtype=np.uint8)
    packed[..., 0::2] = SWEEP_Y.reshape(SWEEP_H, 256, 2)
    packed[..., 1] = u
    packed[..., 3] = SWEEP_V
    return packed.tobytes()


class TestEveryTriple:
    def test_both_formats_equal_the_float_oracle(self):
        for u in range(256):
            planes = _yv12_sweep(u)
            want = yv12_to_rgb_ref(*planes)
            for fmt, data in (("YV12", yuv.pack_yv12(*planes)),
                              ("YUY2", _yuy2_sweep(u))):
                got = yuv.decode_frame(fmt, data, SWEEP_W, SWEEP_H)
                assert np.array_equal(got[..., :3], want), (fmt, u)
                assert (got[..., 3] == 255).all(), (fmt, u)

    def test_sweep_holds_every_luma_chroma_pair_in_both_layouts(self):
        y, v, u = _yv12_sweep(3)
        upsampled = np.repeat(np.repeat(v, 2, 0), 2, 1)
        assert len(set(zip(y.ravel().tolist(),
                           upsampled.ravel().tolist()))) == 1 << 16
        # The YUY2 bytes are the same image, so one YV12 oracle call per
        # U judges both formats above (the two float formulas agree).
        assert np.array_equal(yuy2_to_rgb_ref(_yuy2_sweep(3), SWEEP_W,
                                              SWEEP_H),
                              yv12_to_rgb_ref(y, v, u))

    def test_ties_round_with_luma_not_by_one_offset(self):
        """1.772 * 125 = 221.5: B at U = 253 must round half-to-even
        with Y, which no single integer offset can do."""
        y = np.array([[32, 33], [34, 35]], dtype=np.uint8)
        u = np.array([[253]], dtype=np.uint8)
        v = np.array([[128]], dtype=np.uint8)
        blue = yuv.yv12_to_rgb(y, v, u)[..., 2]
        assert blue.tolist() == [[254, 254], [255, 255]]
        assert np.array_equal(blue, yv12_to_rgb_ref(y, v, u)[..., 2])


#: Chroma pairs with a term on a rounding tie: B's at U = 3 and 253 (any
#: V, drawn at random), G's at (U, V) = (78, 178) and (178, 78).
TIE_PAIRS = ((3, None), (253, None), (78, 178), (178, 78))


def _chroma_with_ties(data, rng, shape):
    u = rng.integers(0, 256, shape, dtype=np.uint8)
    v = rng.integers(0, 256, shape, dtype=np.uint8)
    spots = data.draw(st.lists(st.tuples(
        st.integers(0, shape[0] - 1), st.integers(0, shape[1] - 1),
        st.sampled_from(TIE_PAIRS)), max_size=8))
    for i, j, (tie_u, tie_v) in spots:
        u[i, j] = tie_u
        if tie_v is not None:
            v[i, j] = tie_v
    return u, v


@given(st.integers(1, 40), st.integers(1, 40), st.data())
@settings(max_examples=100, deadline=None)
def test_random_geometry_and_ties_equal_the_float_oracle(w, h, data):
    """Any frame size, odd luma included, with tie pairs anywhere: the
    tie pixels are patched through another view than the lanes."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    y = rng.integers(0, 256, (h, w), dtype=np.uint8)
    u, v = _chroma_with_ties(data, rng, ((h + 1) // 2, (w + 1) // 2))
    if h % 2 or w % 2:
        # Not a legal YV12 frame: the planes go straight to the
        # pad-and-crop path decode_frame shares.
        got = yuv._yv12_to_rgba(y, v, u)
    else:
        got = yuv.decode_frame("YV12", yuv.pack_yv12(y, v, u), w, h)
    assert np.array_equal(got[..., :3], yv12_to_rgb_ref(y, v, u))
    assert (got[..., 3] == 255).all()

    # YUY2: one chroma pair per two luma columns of each row.
    cw = (w + 1) // 2
    u, v = _chroma_with_ties(data, rng, (h, cw))
    packed = np.empty((h, cw, 4), dtype=np.uint8)
    packed[..., 0::2] = rng.integers(0, 256, (h, cw, 2), dtype=np.uint8)
    packed[..., 1], packed[..., 3] = u, v
    frame = packed.tobytes()
    got = yuv.decode_frame("YUY2", frame, 2 * cw, h)
    assert np.array_equal(got[..., :3], yuy2_to_rgb_ref(frame, 2 * cw, h))
    assert (got[..., 3] == 255).all()


class TestPlaneShapes:
    @pytest.mark.parametrize("h,w", [(5, 7), (6, 7), (5, 8), (1, 1)])
    def test_odd_luma_crops_replicated_chroma(self, h, w):
        rng = np.random.default_rng(h * 16 + w)
        y = rng.integers(0, 256, (h, w), dtype=np.uint8)
        # One chroma row/column more than needed is cropped away too.
        v = rng.integers(0, 256, ((h + 1) // 2 + 1, (w + 1) // 2),
                         dtype=np.uint8)
        u = rng.integers(0, 256, v.shape, dtype=np.uint8)
        got = yuv.yv12_to_rgb(y, v, u)
        assert got.shape == (h, w, 3)
        assert np.array_equal(got, yv12_to_rgb_ref(y, v, u))

    @pytest.mark.parametrize("fmt", yuv.FORMATS)
    def test_decode_frame_is_an_opaque_rgba_block(self, fmt):
        rng = np.random.default_rng(5)
        rgb = rng.integers(0, 256, (6, 8, 3), dtype=np.uint8)
        out = yuv.decode_frame(fmt, yuv.encode_frame(fmt, rgb), 8, 6)
        assert out.shape == (6, 8, 4) and out.dtype == np.uint8
        assert (out[..., 3] == 255).all()
        # The packed view scale_rgb and Framebuffer rely on exists.
        assert out.view(np.uint32).shape == (6, 8, 1)

    def test_rgb_views_share_the_kernel_output(self):
        rng = np.random.default_rng(6)
        rgb = rng.integers(0, 256, (4, 6, 3), dtype=np.uint8)
        for fmt in yuv.FORMATS:
            data = yuv.encode_frame(fmt, rgb)
            rgba = yuv.decode_frame(fmt, data, 6, 4)
            three = (yuv.yv12_to_rgb(*yuv.unpack_yv12(data, 6, 4))
                     if fmt == "YV12" else yuv.yuy2_to_rgb(data, 6, 4))
            assert three.shape == (4, 6, 3)
            assert np.array_equal(three, rgba[..., :3])


class TestScaleAgainstIxGather:
    SIZES = {"up": (29, 23), "down": (5, 3), "identity": (11, 9),
             "mixed": (40, 2)}

    @pytest.mark.parametrize("channels", [3, 4])
    @pytest.mark.parametrize("layout", ["contiguous", "sliced", "reversed"])
    @pytest.mark.parametrize("size", sorted(SIZES))
    def test_same_pixels(self, size, layout, channels):
        rng = np.random.default_rng(7)
        block = rng.integers(0, 256, (13, 15, channels), dtype=np.uint8)
        src = {"contiguous": block[:9, :11].copy(),
               "sliced": block[2:11, 3:14],
               # No uint32 view exists of a channel-reversed block.
               "reversed": block[:9, :11, ::-1]}[layout]
        width, height = self.SIZES[size]
        got = yuv.scale_rgb(src, width, height)
        assert got.shape == (height, width, channels)
        assert got.dtype == np.uint8
        assert np.array_equal(got, scale_rgb_ref(src, width, height))

    @pytest.mark.parametrize("shape", [(0, 4, 4), (4, 0, 4), (0, 0, 3)])
    def test_empty_source_is_a_value_error(self, shape):
        with pytest.raises(ValueError):
            yuv.scale_rgb(np.zeros(shape, dtype=np.uint8), 4, 4)
