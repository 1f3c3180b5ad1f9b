"""YUV pixel formats and colour-space conversion.

THINC ships video frames in planar YUV (primarily YV12) so that the
*client's* video hardware performs colour-space conversion and scaling
(Section 4.2).  YV12 stores a full-resolution luma (Y) plane followed by
quarter-resolution V and U chroma planes: 12 bits per pixel instead of
24, a free 2x reduction in network bytes with no perceptible loss.

These routines implement BT.601 full-range conversion with 4:2:0 chroma
subsampling, plus the packing/unpacking of the planar wire layout.  The
forward conversion is 16-bit fixed point, within one code value of the
float formula; the server's video transcoders, the lossy RAW codec and
the synthetic clips all run it.

The inverse (YUV -> RGB) runs once per presented frame on the server
screen and once on every client, so it is done the way overlay hardware
does it: exact integer tables, RGBA out.  Chroma becomes one integer
offset per channel and luma column, looked up from chroma and added
to the luma rows of the 2x2 (YV12) or 1x2 (YUY2) block it covers; the
result is an ``(h, w, 4)`` RGBA block with alpha 255, the layout
``Framebuffer`` stores, and :func:`scale_rgb` moves it one ``uint32``
per pixel.  The tables are built at import from the BT.601 float
coefficients, and the kernel is bit-identical to the float formula for
every (Y, U, V) triple (pixels whose chroma sits on a rounding tie are
the one place it still adds floats); the formula itself lives on as the
oracle in ``tests/video/reference.py``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "yv12_frame_size",
    "rgb_to_yv12",
    "yv12_to_rgb",
    "pack_yv12",
    "unpack_yv12",
    "yuy2_frame_size",
    "rgb_to_yuy2",
    "yuy2_to_rgb",
    "frame_size",
    "encode_frame",
    "decode_frame",
    "FORMATS",
    "scale_rgb",
]


def yv12_frame_size(width: int, height: int) -> int:
    """Bytes in one YV12 frame: Y plane + two quarter-size chroma planes."""
    if width % 2 or height % 2:
        raise ValueError("YV12 dimensions must be even")
    return width * height * 3 // 2


# 16-bit fixed-point BT.601 full-range coefficients: each row is the
# float weights scaled by 2**16, and Y's three sum to exactly 2**16.
_YR, _YG, _YB = 19595, 38470, 7471          # 0.299, 0.587, 0.114
_UR, _UG, _UB = -11058, -21710, 32768       # -0.168736, -0.331264, 0.5
_VR, _VG, _VB = 32768, -27439, -5329        # 0.5, -0.418688, -0.081312
_HALF = 1 << 15
# A 2x2 block sum carries four 128 chroma biases plus the rounding half
# of the final 18-bit shift (16 fixed-point bits, 2 for the average).
_CHROMA_BIAS = 4 * (128 << 16) + (2 << 16)


def _quad(plane: np.ndarray) -> np.ndarray:
    """2x2 block sums via four strided adds (markedly cheaper than a
    two-axis reduction at these block sizes)."""
    return plane[0::2, 0::2] + plane[0::2, 1::2] + plane[1::2, 0::2] \
        + plane[1::2, 1::2]


def rgb_to_yv12(rgb: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Convert an HxWx3 uint8 RGB frame to (Y, V, U) planes.

    Returns uint8 planes: Y is HxW, V and U are (H/2)x(W/2).  Integer
    BT.601 full range, within one code value per sample of the float
    formula (``tests/video/reference.py``).  Chroma is converted
    *after* the 2x2 subsample: the colour matrix is affine, so
    averaging RGB first is averaging U/V (modulo one rounding step),
    and the chroma math runs on a quarter of the pixels.  Y needs no
    clip — its weights are all positive and sum to exactly 2**16.
    """
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] < 3:
        raise ValueError("expected HxWx3 RGB input")
    if rgb.shape[0] % 2 or rgb.shape[1] % 2:
        raise ValueError("YV12 dimensions must be even")
    r = rgb[..., 0].astype(np.int32)
    g = rgb[..., 1].astype(np.int32)
    b = rgb[..., 2].astype(np.int32)
    y8 = ((_YR * r + _YG * g + _YB * b + _HALF) >> 16).astype(np.uint8)
    r2, g2, b2 = _quad(r), _quad(g), _quad(b)
    u8 = ((_UR * r2 + _UG * g2 + _UB * b2 + _CHROMA_BIAS) >> 18) \
        .clip(0, 255).astype(np.uint8)
    v8 = ((_VR * r2 + _VG * g2 + _VB * b2 + _CHROMA_BIAS) >> 18) \
        .clip(0, 255).astype(np.uint8)
    return y8, v8, u8


# -- YUV -> RGBA: exact integer tables ----------------------------------------
#
# In floats, R = Y + 1.402 V', G = Y - 0.344136 U' - 0.714136 V' and
# B = Y + 1.772 U' (U' = U - 128, V' = V - 128), rounded half-to-even and
# clipped.  Y is an integer, so unless the chroma term sits on a rounding
# tie the rounded sum is Y plus the rounded chroma term, which depends on
# chroma alone: an int16 table each, R by V, B by U, G by u<<8|v.  On a
# tie (1.772 * 125 = 221.5 at U = 3 and 253; -+18.5 at two G pairs) the
# float path rounds to even, or to wherever its summation order left
# it, differently from one Y to the next; no single offset reproduces
# that.  So a chroma pair with a term within ``_TIE_EPS`` of a tie (float
# error in either form is below 1e-13) is flagged in ``_TIES`` and the
# pixels that carry it take the float sums, built from the same
# per-byte product tables.  Row 19 of docs/PERF.md, "Earlier perf PRs,
# one row each", has the counts; tests/video/test_yuv_kernel.py checks
# all 2**24 triples.

_TIE_EPS = 1e-6


def _rounded_offsets(offset: np.ndarray):
    """(*offset* rounded to int16, mask of entries too near a tie)."""
    rounded = np.rint(offset)
    near_tie = np.abs(np.abs(offset - rounded) - 0.5) < _TIE_EPS
    return rounded.astype(np.int16), near_tie


def _twice(offsets: np.ndarray) -> np.ndarray:
    """Each int16 of *offsets* twice over in one uint32, so a gather at
    chroma resolution, viewed as int16, has one offset per luma column."""
    doubled = offsets.view(np.uint16).astype(np.uint32)
    doubled *= 0x10001
    return doubled


def _build_tables():
    chroma = np.arange(256, dtype=np.float64) - 128.0
    r_v, b_u = 1.402 * chroma, 1.772 * chroma
    g_u, g_v = 0.344136 * chroma, 0.714136 * chroma
    rv, r_tie = _rounded_offsets(r_v)
    bu, b_tie = _rounded_offsets(b_u)
    # G has one entry per (u, v); a row at a time, so that importing the
    # module never holds float temporaries of the whole 256x256 square.
    guv = np.empty((256, 256), dtype=np.uint32)
    ties = np.empty((256, 256), dtype=bool)
    for u in range(256):
        g, g_tie = _rounded_offsets(-g_u[u] - g_v)
        guv[u] = _twice(g)
        ties[u] = g_tie | b_tie[u] | r_tie
    return ((r_v, g_u, g_v, b_u), (_twice(rv), guv.ravel(), _twice(bu)),
            ties.ravel())


#: Float chroma products by chroma byte; their integer roundings, each
#: twice over (G's by ``u << 8 | v``); and which chroma pairs must not
#: use the roundings.
(_R_V, _G_U, _G_V, _B_U), (_RV2, _GUV2, _BU2), _TIES = _build_tables()


def _yuv_to_rgba(y: np.ndarray, u: np.ndarray, v: np.ndarray,
                 block_h: int) -> np.ndarray:
    """The one YUV -> RGBA kernel: chroma sample ``[i, j]`` covers the
    luma block ``[i*block_h : (i+1)*block_h, 2*j : 2*j+2]``.

    Every pass runs along whole luma rows.  Each channel's offsets,
    gathered at chroma resolution from a doubled table, are one offset
    per luma column; they are added to the ``block_h`` luma rows under
    them and clipped.  A pixel is then two 16-bit lanes, ``R | G << 8``
    and ``B | 0xFF00``, stored together as one ``uint32``.
    """
    ch, cw = u.shape
    h, w = ch * block_h, cw * 2
    pair = (u.astype(np.intp) << 8) | v
    luma = y.reshape(ch, block_h, w)
    channels = np.empty((3, ch, block_h, w), dtype=np.int16)
    offsets = (_RV2.take(v), _GUV2.take(pair), _BU2.take(u))
    for channel, offset in zip(channels, offsets):
        np.add(luma, offset.view(np.int16)[:, None], out=channel)
    np.clip(channels, 0, 255, out=channels)
    r, g, b = channels.view(np.uint16)
    g <<= 8
    r |= g
    b |= 0xFF00
    rgba = np.empty((h, w, 4), dtype=np.uint8)
    # Little-endian, so R is the low byte whatever the host's order.
    pixels = rgba.view("<u4").reshape(ch, block_h, w)
    np.left_shift(b, 16, out=pixels, dtype=np.uint32)
    pixels |= r
    ties = _TIES[pair]
    if ties.any():
        cy, cx = np.nonzero(ties)
        yt = y.reshape(ch, block_h, cw, 2)[cy, :, cx, :].astype(np.float64)
        ut, vt = u[cy, cx][:, None, None], v[cy, cx][:, None, None]
        # The float path's own operation order, to the last bit.
        exact = np.stack([yt + _R_V[vt], yt - _G_U[ut] - _G_V[vt],
                          yt + _B_U[ut]], axis=-1)
        blocks = rgba.reshape(ch, block_h, cw, 2, 4)
        blocks[cy, :, cx, :, :3] = np.clip(np.rint(exact), 0, 255)
    return rgba


def _yv12_to_rgba(y: np.ndarray, v: np.ndarray, u: np.ndarray) -> np.ndarray:
    h, w = y.shape
    ch, cw = (h + 1) // 2, (w + 1) // 2
    if (h, w) != (2 * ch, 2 * cw):
        # Odd luma: chroma replication covers the padded grid and the
        # result is cropped back, as replicate-then-crop always did.
        padded = np.zeros((2 * ch, 2 * cw), dtype=np.uint8)
        padded[:h, :w] = y
        y = padded
    return _yuv_to_rgba(y, u[:ch, :cw], v[:ch, :cw], 2)[:h, :w]


def yv12_to_rgb(y: np.ndarray, v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Reconstruct an HxWx3 uint8 RGB frame from planar YV12 data.

    Chroma is upsampled by pixel replication (what cheap hardware does).
    """
    return _yv12_to_rgba(np.asarray(y, dtype=np.uint8),
                         np.asarray(v, dtype=np.uint8),
                         np.asarray(u, dtype=np.uint8))[..., :3]


def pack_yv12(y: np.ndarray, v: np.ndarray, u: np.ndarray) -> bytes:
    """Serialise planes into the YV12 wire layout (Y then V then U)."""
    return y.tobytes() + v.tobytes() + u.tobytes()


def unpack_yv12(data: bytes, width: int, height: int
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse the YV12 wire layout back into (Y, V, U) planes."""
    expected = yv12_frame_size(width, height)
    if len(data) != expected:
        raise ValueError(
            f"YV12 buffer is {len(data)} bytes, expected {expected} "
            f"for {width}x{height}"
        )
    ysize = width * height
    csize = ysize // 4
    y = np.frombuffer(data, dtype=np.uint8, count=ysize).reshape(
        height, width)
    v = np.frombuffer(data, dtype=np.uint8, count=csize, offset=ysize
                      ).reshape(height // 2, width // 2)
    u = np.frombuffer(data, dtype=np.uint8, count=csize,
                      offset=ysize + csize).reshape(height // 2, width // 2)
    return y, v, u


def yuy2_frame_size(width: int, height: int) -> int:
    """Bytes in one YUY2 frame: packed 4:2:2, 16 bits per pixel."""
    if width % 2:
        raise ValueError("YUY2 width must be even")
    return width * height * 2


def _full_yuv(rgb: np.ndarray):
    rgb = np.asarray(rgb, dtype=np.float64)
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    y = 0.299 * r + 0.587 * g + 0.114 * b
    u = -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0
    v = 0.5 * r - 0.418688 * g - 0.081312 * b + 128.0
    return y, u, v


def rgb_to_yuy2(rgb: np.ndarray) -> bytes:
    """Convert an HxWx3 uint8 RGB frame to packed YUY2 (Y0 U Y1 V).

    Chroma is averaged over each horizontal pixel pair (4:2:2): half
    the chroma of RGB, twice that of YV12, at 16 bits per pixel.
    """
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] < 3:
        raise ValueError("expected HxWx3 RGB input")
    if rgb.shape[1] % 2:
        raise ValueError("YUY2 width must be even")
    y, u, v = _full_yuv(rgb[..., :3])
    h, w = y.shape
    y8 = np.clip(np.rint(y), 0, 255).astype(np.uint8)
    u8 = np.clip(np.rint(u.reshape(h, w // 2, 2).mean(axis=2)),
                 0, 255).astype(np.uint8)
    v8 = np.clip(np.rint(v.reshape(h, w // 2, 2).mean(axis=2)),
                 0, 255).astype(np.uint8)
    packed = np.empty((h, w * 2), dtype=np.uint8)
    packed[:, 0::4] = y8[:, 0::2]
    packed[:, 1::4] = u8
    packed[:, 2::4] = y8[:, 1::2]
    packed[:, 3::4] = v8
    return packed.tobytes()


def _yuy2_to_rgba(data: bytes, width: int, height: int) -> np.ndarray:
    expected = yuy2_frame_size(width, height)
    if len(data) != expected:
        raise ValueError(
            f"YUY2 buffer is {len(data)} bytes, expected {expected} "
            f"for {width}x{height}"
        )
    packed = np.frombuffer(data, dtype=np.uint8).reshape(height, width * 2)
    return _yuv_to_rgba(packed[:, 0::2], packed[:, 1::4], packed[:, 3::4], 1)


def yuy2_to_rgb(data: bytes, width: int, height: int) -> np.ndarray:
    """Decode packed YUY2 back to an HxWx3 uint8 RGB frame."""
    return _yuy2_to_rgba(data, width, height)[..., :3]


# Format registry used by the video pipeline: wire id, sizing, codecs.
FORMATS = ("YV12", "YUY2")


def frame_size(pixel_format: str, width: int, height: int) -> int:
    """Bytes of one frame of *pixel_format* at the given dimensions."""
    if pixel_format == "YV12":
        return yv12_frame_size(width, height)
    if pixel_format == "YUY2":
        return yuy2_frame_size(width, height)
    raise ValueError(f"unknown pixel format {pixel_format!r}")


def encode_frame(pixel_format: str, rgb: np.ndarray) -> bytes:
    """Encode an RGB frame in the given wire pixel format."""
    if pixel_format == "YV12":
        return pack_yv12(*rgb_to_yv12(rgb))
    if pixel_format == "YUY2":
        return rgb_to_yuy2(rgb)
    raise ValueError(f"unknown pixel format {pixel_format!r}")


def decode_frame(pixel_format: str, data: bytes, width: int,
                 height: int) -> np.ndarray:
    """Decode a wire frame to an HxWx4 RGBA block (alpha 255)."""
    if pixel_format == "YV12":
        return _yv12_to_rgba(*unpack_yv12(data, width, height))
    if pixel_format == "YUY2":
        return _yuy2_to_rgba(data, width, height)
    raise ValueError(f"unknown pixel format {pixel_format!r}")


def scale_rgb(rgb: np.ndarray, width: int, height: int) -> np.ndarray:
    """Nearest-neighbour scale, modelling the client's hardware scaler.

    Hardware overlay scalers do cheap sampling; the point in THINC is
    that scaling happens *after* the network, so the wire cost is
    independent of the viewing size.  Columns are gathered first, then
    whole rows; an RGBA block moves as one ``uint32`` per pixel.
    """
    rgb = np.asarray(rgb)
    if width <= 0 or height <= 0:
        raise ValueError("target dimensions must be positive")
    src_h, src_w = rgb.shape[0], rgb.shape[1]
    if src_h == 0 or src_w == 0:
        raise ValueError("cannot scale an empty source")
    ys = np.arange(height) * src_h // height
    xs = np.arange(width) * src_w // width
    packable = (rgb.dtype == np.uint8 and rgb.ndim == 3
                and rgb.shape[2] == 4 and rgb.strides[2] == 1)
    src = rgb.view(np.uint32) if packable else rgb
    out = np.take(np.take(src, xs, axis=1), ys, axis=0)
    return out.view(np.uint8) if packable else out
