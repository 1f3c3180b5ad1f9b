"""The batched codec kernels against their per-pixel/per-run oracles.

Each vectorised kernel is checked three ways: against a hand-computed
golden vector (so the byte format itself is pinned), against a naive
reference implementation transliterated from the pre-vectorisation
loops (so the rewrite provably changed speed and nothing else), and
with hypothesis round-trips.  A source-level guard then asserts the
kernels module has not regrown a per-pixel Python loop.
"""

import ast
import inspect
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import kernels
from repro.protocol import compression as comp
from tests.helpers import deflate_spy


def random_rgba(w, h, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(h, w, 4), dtype=np.uint8)


# -- reference implementations (the pre-vectorisation loops) ----------------

def _ref_rle_encode(pixels):
    """Per-run transliteration of the RLE encoder."""
    flat = np.ascontiguousarray(pixels, dtype=np.uint8).reshape(-1, 4)
    out = bytearray()
    index = 0
    while index < len(flat):
        run = 1
        while (index + run < len(flat)
               and (flat[index + run] == flat[index]).all()
               and run < 0xFFFF):
            run += 1
        out += run.to_bytes(2, "big") + flat[index].tobytes()
        index += run
    return bytes(out)


def _ref_up_filter(pixels):
    """The 'up' filter through int16 temporaries, as it was written
    before the kernels wrapped in uint8."""
    img = pixels.astype(np.uint8)
    h, w, c = img.shape
    flat = img.reshape(h, w * c).astype(np.int16)
    up = np.zeros_like(flat)
    up[1:, :] = flat[:-1, :]
    return (flat - up).astype(np.uint8)


def _ref_up_unfilter(filtered, height, width, channels):
    """The 'up' unfilter as a uint64 cumsum taken mod 256."""
    flat = filtered.reshape(height, width * channels).astype(np.uint64)
    out = np.cumsum(flat, axis=0) % 256
    return out.astype(np.uint8).reshape(height, width, channels)


# -- golden vectors ---------------------------------------------------------

class TestGoldenVectors:
    def test_rle_bytes_are_pinned(self):
        """(count u16 BE, rgba) pairs, exactly."""
        img = np.zeros((1, 3, 4), dtype=np.uint8)
        img[0, :2] = (1, 2, 3, 4)
        img[0, 2] = (9, 8, 7, 6)
        assert kernels.rle_encode(img) == (
            b"\x00\x02\x01\x02\x03\x04" b"\x00\x01\x09\x08\x07\x06")

    def test_oversize_run_chunks_at_0xffff(self):
        img = np.full((1, 0x10001, 4), 5, dtype=np.uint8)
        body = kernels.rle_encode(img)
        assert body == (b"\xff\xff\x05\x05\x05\x05"
                        b"\x00\x02\x05\x05\x05\x05")

    def test_up_filter_golden(self):
        img = np.array([[[100, 0, 0, 0]], [[90, 0, 0, 0]]], dtype=np.uint8)
        filtered = kernels.up_filter(img)
        assert filtered[0, 0] == 100 and filtered[1, 0] == 246  # -10 mod 256


# -- equivalence with the legacy loops --------------------------------------

class TestLoopEquivalence:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_rle_encode_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        # Low-cardinality pixels so real runs form.
        img = rng.integers(0, 3, size=(11, 13, 4), dtype=np.uint8)
        img[:, :, 3] = 255
        assert kernels.rle_encode(img) == _ref_rle_encode(img)

    def test_rle_encode_matches_reference_on_noise(self):
        img = random_rgba(9, 6, seed=4)
        assert kernels.rle_encode(img) == _ref_rle_encode(img)

    @given(st.integers(1, 12), st.integers(1, 12), st.sampled_from([3, 4]),
           st.sampled_from(["contiguous", "strided", "channel-sliced"]),
           st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_up_kernels_match_reference(self, w, h, channels, layout, seed):
        """The uint8 'up' kernels are byte-equal to the int16 / uint64
        formulas on any layout a caller may hand them: one row, three
        or four channels, a strided view or a channel slice."""
        rng = np.random.default_rng(seed)
        if layout == "strided":
            img = rng.integers(0, 256, (2 * h, 2 * w, channels),
                               dtype=np.uint8)[::2, ::2]
        elif layout == "channel-sliced":
            img = rng.integers(0, 256, (h, w, channels + 1),
                               dtype=np.uint8)[..., :channels]
        else:
            img = rng.integers(0, 256, (h, w, channels), dtype=np.uint8)
        filtered = kernels.up_filter(img)
        assert filtered.tobytes() == _ref_up_filter(img).tobytes()
        wide = np.zeros((h, 2 * w * channels), dtype=np.uint8)
        wide[:, ::2] = filtered
        for rows in (filtered, wide[:, ::2]):
            out = kernels.up_unfilter(rows, h, w, channels)
            assert out.tobytes() == _ref_up_unfilter(rows, h, w,
                                                     channels).tobytes()
            assert np.array_equal(out, img)
        view = np.frombuffer(filtered.tobytes(), dtype=np.uint8)
        assert np.array_equal(kernels.up_unfilter(view, h, w, channels), img)
        rgba = np.full((h, w, 4), 255, dtype=np.uint8)
        assert kernels.up_unfilter(view, h, w, channels, rgba) is rgba
        assert np.array_equal(rgba[..., :channels], img)
        assert (rgba[..., channels:] == 255).all()


# -- round-trips ------------------------------------------------------------

class TestRoundTrips:
    @given(st.integers(1, 20), st.integers(1, 20), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_up_roundtrip(self, w, h, seed):
        img = random_rgba(w, h, seed)
        out = kernels.up_unfilter(kernels.up_filter(img), h, w, 4)
        assert np.array_equal(out, img)

    @given(st.integers(1, 16), st.integers(1, 16), st.integers(0, 2**16),
           st.integers(2, 64))
    @settings(max_examples=40, deadline=None)
    def test_rle_roundtrip(self, w, h, seed, cardinality):
        rng = np.random.default_rng(seed)
        img = rng.integers(0, cardinality, (h, w, 4), dtype=np.uint8)
        body = kernels.rle_encode(img)
        out = kernels.rle_decode(body, h * w).reshape(h, w, 4)
        assert np.array_equal(out, img)

    def test_rle_size_is_exact(self):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            img = rng.integers(0, 4, (13, 7, 4), dtype=np.uint8)
            assert kernels.rle_encoded_size(img) == \
                len(kernels.rle_encode(img))

    def test_rle_decode_rejects_bad_coverage(self):
        body = kernels.rle_encode(random_rgba(4, 4, 1))
        with pytest.raises(ValueError):
            kernels.rle_decode(body, 17)
        with pytest.raises(ValueError):
            kernels.rle_decode(body + b"\x00", 16)


# -- the no-per-pixel-loop guard --------------------------------------------

class TestNoPerPixelLoops:
    def _for_loops(self, module):
        tree = ast.parse(inspect.getsource(module))
        return [node for node in ast.walk(tree)
                if isinstance(node, ast.For)]

    def test_kernels_has_no_statement_loops(self):
        """Every kernel is whole-array numpy: no ``for`` statement."""
        assert self._for_loops(kernels) == []

    def test_compression_module_has_no_statement_loops(self):
        """Pixels never meet a Python loop here.  What the module does
        iterate, it iterates in comprehensions whose trip count is the
        number of blocks in a batch or of row-band segments in an image
        (O(h / band), a few dozen for a full screen) — checked below on
        an image with 16x the pixels of another and the same bands."""
        assert self._for_loops(comp) == []
        with deflate_spy() as calls:
            with mock.patch.object(comp, "_BAND_BYTES", 4096):
                comp.png_compress(random_rgba(4, 1024, 1))  # 4 x 256 rows
            small = len(calls)
            with mock.patch.object(comp, "_BAND_BYTES", 65536):
                comp.png_compress(random_rgba(64, 1024, 1))  # 4 x 256 rows
        assert small == len(calls) - small == 8
