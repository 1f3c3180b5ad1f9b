"""The RAW-payload encoding family and its lossy member.

THINC's RAW command is the only one whose payload may be compressed
(Section 7); this module names the admissible encodings — the on-wire
tag is the :class:`Encoding` value — and implements the one codec that
does not already exist elsewhere in the tree: a JPEG-style lossy path
(4:2:0 chroma subsampling via the video plane's YV12 conversion, flat
quantisation, DEFLATE pack).  The lossless codecs live in
:mod:`repro.codec.kernels` and :mod:`repro.protocol.compression`.

Layering: this module sits below the protocol layer, so it cannot read
``repro.protocol.limits`` — decode bounds arrive as explicit function
parameters and the protocol-facing wrappers supply the global limits.
"""

from __future__ import annotations

import struct
import zlib
from enum import IntEnum

import numpy as np

from ..video import yuv as yuvmod

__all__ = ["Encoding", "lossy_encode", "lossy_decode", "psnr"]


class Encoding(IntEnum):
    """On-wire RAW payload encodings.

    The numeric values are the wire tag.  ``NONE``/``PNG`` deliberately
    coincide with the pre-enum boolean ``compressed`` flag (0/1), so
    every stream an old peer produced still decodes, and everything an
    adaptive server sends to the ladder's lossless floor is readable by
    an old client.
    """

    NONE = 0    # uncompressed RGBA rows
    PNG = 1     # predictive row filter + DEFLATE (lossless)
    RLE = 2     # run-length (count, pixel) pairs (lossless)
    LOSSY = 3   # 4:2:0 subsampled, quantised, DEFLATE-packed


#: Header of a LOSSY payload: true (unpadded) height, width, and the
#: flat quantiser step the encoder used.
_LOSSY_META = struct.Struct(">HHB")

#: DEFLATE effort for the lossy pack: the quantised planes are already
#: low-entropy, so a light level keeps the encoder cheap.
_LOSSY_ZLIB_LEVEL = 2


def _padded_dims(h: int, w: int):
    return h + (h & 1), w + (w & 1)


def _quantise(plane: np.ndarray, qstep: int) -> np.ndarray:
    return ((plane.astype(np.uint16) + qstep // 2) // qstep).astype(np.uint8)


def _dequantise(plane: np.ndarray, qstep: int) -> np.ndarray:
    return np.minimum(plane.astype(np.uint16) * qstep, 255).astype(np.uint8)


def lossy_encode(pixels: np.ndarray, qstep: int = 8) -> bytes:
    """Encode an HxWx4 RGBA block lossily.

    Chroma is 4:2:0 subsampled through the same YV12 conversion the
    video plane uses; luma, chroma and alpha planes are flat-quantised
    by *qstep* and DEFLATE-packed together.  Alpha rides at full
    resolution so transparent UI degrades in colour, never in shape.
    """
    img = np.ascontiguousarray(pixels, dtype=np.uint8)
    if img.ndim != 3 or img.shape[2] != 4:
        raise ValueError("expected an HxWx4 RGBA array")
    if not 1 <= qstep <= 255:
        raise ValueError("qstep must be in [1, 255]")
    h, w, _ = img.shape
    ph, pw = _padded_dims(h, w)
    if (ph, pw) != (h, w):
        img = np.pad(img, ((0, ph - h), (0, pw - w), (0, 0)), mode="edge")
    y, v, u = yuvmod.rgb_to_yv12(img)
    body = b"".join(_quantise(p, qstep).tobytes()
                    for p in (y, v, u, img[..., 3]))
    return (_LOSSY_META.pack(h, w, qstep)
            + zlib.compress(body, _LOSSY_ZLIB_LEVEL))


def lossy_decode(data: bytes, max_pixel_bytes: int) -> np.ndarray:
    """Invert :func:`lossy_encode` (up to quantisation error).

    *max_pixel_bytes* bounds the ``h*w*4`` output allocation, and the
    DEFLATE stream may only produce exactly the plane bytes the header
    geometry implies — one extra byte proves the payload oversized and
    rejects it before the excess is ever materialised.
    """
    if len(data) < _LOSSY_META.size:
        raise ValueError("truncated lossy pixel data")
    h, w, qstep = _LOSSY_META.unpack_from(data, 0)
    if qstep < 1:
        raise ValueError("lossy quantiser step must be positive")
    if h == 0 or w == 0:
        raise ValueError("lossy payload declares an empty image")
    if h * w * 4 > max_pixel_bytes:
        raise ValueError(
            f"declared geometry {h}x{w} decodes to {h * w * 4} bytes, "
            f"limit is {max_pixel_bytes}")
    ph, pw = _padded_dims(h, w)
    luma = ph * pw
    chroma = (ph // 2) * (pw // 2)
    expected = luma + 2 * chroma + luma  # Y + V + U + alpha
    dec = zlib.decompressobj()
    raw = dec.decompress(data[_LOSSY_META.size:], expected + 1)
    if len(raw) != expected or dec.unconsumed_tail:
        raise ValueError(
            f"lossy planes decompressed to more or fewer than the "
            f"expected {expected} bytes")
    planes = np.frombuffer(raw, dtype=np.uint8)
    y = _dequantise(planes[:luma].reshape(ph, pw), qstep)
    v = _dequantise(planes[luma:luma + chroma]
                    .reshape(ph // 2, pw // 2), qstep)
    u = _dequantise(planes[luma + chroma:luma + 2 * chroma]
                    .reshape(ph // 2, pw // 2), qstep)
    alpha = _dequantise(planes[luma + 2 * chroma:].reshape(ph, pw), qstep)
    rgb = yuvmod.yv12_to_rgb(y, v, u)
    out = np.empty((ph, pw, 4), dtype=np.uint8)
    out[..., :3] = rgb
    out[..., 3] = alpha
    return np.ascontiguousarray(out[:h, :w])


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio between two uint8 arrays, in dB."""
    diff = a.astype(np.float64) - b.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(255.0 * 255.0 / mse)
