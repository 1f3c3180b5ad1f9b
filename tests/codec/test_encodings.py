"""The lossy RAW encoding: fidelity floors, bounded decoding, and the
integer colour-conversion fast path staying faithful to the float one."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec.encodings import lossy_decode, lossy_encode, psnr
from repro.protocol import compression as comp
from repro.video import yuv as yuvmod
from tests.video.reference import rgb_to_yv12_ref

MAX_BYTES = 1 << 20


def random_rgba(w, h, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(h, w, 4), dtype=np.uint8)


def gradient_rgba(w, h):
    ramp = np.linspace(0, 255, w, dtype=np.uint8)
    img = np.empty((h, w, 4), dtype=np.uint8)
    img[..., 0] = ramp
    img[..., 1] = ramp[::-1]
    img[..., 2] = np.linspace(0, 255, h, dtype=np.uint8)[:, None]
    img[..., 3] = 255
    return img


class TestFidelity:
    def test_gradient_psnr_floor(self):
        img = gradient_rgba(64, 48)
        out = lossy_decode(lossy_encode(img, qstep=8), MAX_BYTES)
        assert psnr(img, out) >= 30.0

    def test_noise_psnr_floor(self):
        img = random_rgba(64, 48, seed=3)
        out = lossy_decode(lossy_encode(img, qstep=8), MAX_BYTES)
        assert psnr(img, out) >= 10.0

    def test_solid_block_nearly_exact(self):
        img = np.full((16, 16, 4), (40, 90, 200, 255), dtype=np.uint8)
        out = lossy_decode(lossy_encode(img, qstep=1), MAX_BYTES)
        assert int(np.abs(out.astype(int) - img.astype(int)).max()) <= 4

    def test_alpha_rides_at_full_resolution(self):
        """Transparent UI degrades in colour, never in shape: alpha
        error is bounded by the quantiser alone (no subsampling)."""
        img = random_rgba(32, 32, seed=5)
        img[..., 3] = (np.arange(32)[:, None] * 8).astype(np.uint8)
        out = lossy_decode(lossy_encode(img, qstep=8), MAX_BYTES)
        err = np.abs(out[..., 3].astype(int) - img[..., 3].astype(int))
        assert int(err.max()) <= 8

    def test_odd_dimensions_preserved(self):
        img = gradient_rgba(33, 17)
        out = lossy_decode(lossy_encode(img), MAX_BYTES)
        assert out.shape == img.shape and out.dtype == np.uint8

    def test_smaller_than_png_on_photographic_content(self):
        rng = np.random.default_rng(11)
        base = gradient_rgba(96, 96).astype(np.int16)
        noisy = np.clip(base + rng.integers(-20, 21, base.shape), 0,
                        255).astype(np.uint8)
        assert len(lossy_encode(noisy)) < len(comp.png_compress(noisy))

    @given(st.integers(1, 24), st.integers(1, 24), st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, w, h, seed):
        img = random_rgba(w, h, seed)
        out = lossy_decode(lossy_encode(img), MAX_BYTES)
        assert out.shape == img.shape
        err = np.abs(out[..., 3].astype(int) - img[..., 3].astype(int))
        assert int(err.max()) <= 8  # alpha bound holds for every shape


class TestIntegerColourPath:
    def test_matches_float_conversion_within_one(self):
        img = random_rgba(64, 64, seed=7)
        rgb = img[..., :3]
        # The lossy codec's conversion is the video plane's kernel,
        # held to the float formula.
        yi, vi, ui = yuvmod.rgb_to_yv12(rgb)
        yf, vf, uf = rgb_to_yv12_ref(rgb)
        for ours, theirs in ((yi, yf), (vi, vf), (ui, uf)):
            delta = np.abs(ours.astype(int) - theirs.astype(int))
            assert int(delta.max()) <= 1


class TestBoundedDecode:
    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            lossy_encode(np.zeros((4, 4, 3), dtype=np.uint8))

    def test_rejects_bad_qstep(self):
        with pytest.raises(ValueError):
            lossy_encode(random_rgba(4, 4), qstep=0)
        with pytest.raises(ValueError):
            lossy_encode(random_rgba(4, 4), qstep=256)

    def test_rejects_truncated_payload(self):
        data = lossy_encode(random_rgba(16, 16, 1))
        with pytest.raises(ValueError):
            lossy_decode(data[:4], MAX_BYTES)
        with pytest.raises(ValueError):
            lossy_decode(data[: len(data) // 2], MAX_BYTES)

    def test_rejects_empty_geometry(self):
        data = bytearray(lossy_encode(random_rgba(8, 8, 1)))
        data[0:2] = (0).to_bytes(2, "big")  # declared height 0
        with pytest.raises(ValueError):
            lossy_decode(bytes(data), MAX_BYTES)

    def test_rejects_zero_qstep_header(self):
        data = bytearray(lossy_encode(random_rgba(8, 8, 1)))
        data[4] = 0
        with pytest.raises(ValueError):
            lossy_decode(bytes(data), MAX_BYTES)

    def test_rejects_geometry_beyond_limit(self):
        data = lossy_encode(random_rgba(16, 16, 1))
        with pytest.raises(ValueError):
            lossy_decode(data, max_pixel_bytes=16 * 16 * 4 - 1)

    def test_rejects_oversized_plane_stream(self):
        """One declared geometry, more plane bytes than it implies."""
        import struct
        import zlib
        img = random_rgba(8, 8, 1)
        good = lossy_encode(img)
        h, w, qstep = struct.unpack_from(">HHB", good, 0)
        raw = zlib.decompressobj().decompress(good[5:])
        evil = struct.pack(">HHB", h, w, qstep) + \
            zlib.compress(raw + b"\x00", 2)
        with pytest.raises(ValueError):
            lossy_decode(evil, MAX_BYTES)

    def test_protocol_wrapper_binds_global_limit(self):
        img = random_rgba(8, 8, 2)
        out = comp.lossy_decompress(comp.lossy_compress(img))
        assert out.shape == img.shape


class TestPsnr:
    def test_identical_is_infinite(self):
        img = random_rgba(4, 4, 1)
        assert psnr(img, img) == float("inf")

    def test_monotone_in_error(self):
        img = random_rgba(16, 16, 1)
        near = np.clip(img.astype(int) + 1, 0, 255).astype(np.uint8)
        far = np.clip(img.astype(int) + 16, 0, 255).astype(np.uint8)
        assert psnr(img, near) > psnr(img, far)
