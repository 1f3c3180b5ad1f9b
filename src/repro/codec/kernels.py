"""Batched numpy kernels for the pixel codecs.

Every kernel here is written so Python-level iteration is at most
O(rows + columns) — never per pixel, never per run.  The protocol
layer's :mod:`repro.protocol.compression` delegates its filter and RLE
work to these functions; keeping them below the protocol layer (rank 15
in the layer map) lets the command objects use them without the codec
plane ever learning about wire formats.

The one genuinely sequential kernel is the Paeth unfilter: pixel (y, x)
depends on its left, up and up-left neighbours, so neither a row pass
nor a column pass can vectorise it.  Each *anti-diagonal* ``d = y + x``
can, though: all three dependencies of a pixel on diagonal ``d`` sit on
diagonals ``d-1`` and ``d-2``, and the channels never mix, so the whole
diagonal resolves in one fancy-indexed numpy step.  That turns the old
``height * width * channels`` interpreted-Python loop into
``height + width - 1`` vector operations over an output array padded
with a zero row and column (the padding stands in for the "missing
neighbour reads as zero" boundary rule, so no per-step masking).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "paeth_predictor",
    "paeth_filter",
    "paeth_unfilter",
    "up_filter",
    "up_unfilter",
    "batch_up_filter",
    "rle_encode",
    "rle_encoded_size",
    "rle_decode",
]


def paeth_predictor(a: np.ndarray, b: np.ndarray, c: np.ndarray
                    ) -> np.ndarray:
    """PNG's Paeth predictor, vectorised over int16 arrays."""
    p = a.astype(np.int16) + b.astype(np.int16) - c.astype(np.int16)
    pa = np.abs(p - a)
    pb = np.abs(p - b)
    pc = np.abs(p - c)
    pred = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
    return pred.astype(np.int16)


def paeth_filter(pixels: np.ndarray) -> np.ndarray:
    """Apply the Paeth filter to every row of an HxWxC image."""
    img = pixels.astype(np.uint8)
    h, w, c = img.shape
    flat = img.reshape(h, w * c)
    left = np.zeros_like(flat)
    left[:, c:] = flat[:, :-c]
    up = np.zeros_like(flat)
    up[1:, :] = flat[:-1, :]
    upleft = np.zeros_like(flat)
    upleft[1:, c:] = flat[:-1, :-c]
    pred = paeth_predictor(left, up, upleft)
    return (flat.astype(np.int16) - pred).astype(np.uint8)


def paeth_unfilter(filtered: np.ndarray, height: int, width: int,
                   channels: int) -> np.ndarray:
    """Invert the Paeth filter by anti-diagonal wavefront.

    ``out`` is padded with one zero row and one zero column so that the
    boundary neighbours (left of column 0, above row 0) read as zero
    without any masking; padded coordinates are ``(y+1, x+1)``.
    """
    f = filtered.reshape(height, width, channels).astype(np.int16)
    out = np.zeros((height + 1, width + 1, channels), dtype=np.int16)
    for d in range(height + width - 1):
        y0 = max(0, d - width + 1)
        y1 = min(height - 1, d)
        ys = np.arange(y0, y1 + 1)
        xs = d - ys
        a = out[ys + 1, xs]        # left     (y, x-1)
        b = out[ys, xs + 1]        # up       (y-1, x)
        cc = out[ys, xs]           # up-left  (y-1, x-1)
        pred = paeth_predictor(a, b, cc)
        out[ys + 1, xs + 1] = (f[ys, xs] + pred) & 0xFF
    return out[1:, 1:].astype(np.uint8)


def _up_rows(img: np.ndarray) -> np.ndarray:
    """'Up'-filter (..., H, W, C) pixels into (..., H, W*C) rows; uint8
    wraps mod 256.

    *img* is only read, and may be a view that skips bytes — the RGB
    channels of an RGBA block.  Such a view is filtered channel plane
    by channel plane (C order over channel-first views), so numpy's
    inner loop runs along a row instead of over C bytes, and no packed
    copy of the input is made.
    """
    rows = img.shape[:-2] + (img.shape[-2] * img.shape[-1],)
    out = np.empty(rows, dtype=np.uint8)
    if img.flags.c_contiguous:
        src, dst = img.reshape(rows), out
    else:
        src = np.moveaxis(img, -1, 0)
        dst = np.moveaxis(out.reshape(img.shape), -1, 0)
    dst[..., :1, :] = src[..., :1, :]
    np.subtract(src[..., 1:, :], src[..., :-1, :], out=dst[..., 1:, :],
                order="C")
    return out


def up_filter(pixels: np.ndarray) -> np.ndarray:
    """PNG 'Up' predictor: each row minus the row above (mod 256)."""
    return _up_rows(np.asarray(pixels, dtype=np.uint8))


def up_unfilter(filtered: np.ndarray, height: int, width: int,
                channels: int, out: Optional[np.ndarray] = None
                ) -> np.ndarray:
    """Invert the Up filter: a column running sum in uint8, which wraps
    mod 256 by itself; *filtered* is only read (a read-only view will do).

    The sum lands in the first *channels* channels of *out* when one is
    given — an (height, width, 4) RGBA array for RGB rows, so no packed
    RGB image is made — and in a fresh (height, width, channels) array
    otherwise; either is returned.  (A fresh 2-D sum is the faster
    numpy loop, ~25 % on a 192x192 block, so it is kept for that case.)
    """
    if out is None:
        flat = filtered.reshape(height, width * channels)
        return np.add.accumulate(flat, axis=0, dtype=np.uint8).reshape(
            height, width, channels)
    np.add.accumulate(filtered.reshape(height, width, channels), axis=0,
                      dtype=np.uint8, out=out[..., :channels])
    return out


def batch_up_filter(stack: np.ndarray) -> np.ndarray:
    """Up-filter N same-shape images in one fused pass.

    *stack* is an (N, H, W, C) uint8 array; the row shift and modular
    subtraction run once over all N images (the batch-prepare path of
    the prepare plane), returning an (N, H, W*C) uint8 array of
    filtered rows ready for per-image DEFLATE.
    """
    return _up_rows(stack.astype(np.uint8, copy=False))


def _run_bounds(view: np.ndarray):
    """Start indices and lengths of the equal-value runs in *view*."""
    changes = np.flatnonzero(np.diff(view)) + 1
    starts = np.concatenate(([0], changes))
    lengths = np.diff(np.concatenate((starts, [len(view)])))
    return starts, lengths


def rle_encode(pixels: np.ndarray) -> bytes:
    """Run-length encode an HxWx4 image into (count u16 BE, rgba) pairs.

    Whole-array: run boundaries come from one ``diff``, oversize runs
    (> 0xFFFF) are chunked with ``repeat``-built index vectors, and the
    output is assembled as a single (chunks, 6) byte matrix.
    """
    flat = np.ascontiguousarray(pixels, dtype=np.uint8).reshape(-1, 4)
    view = flat.view(np.uint32).ravel()
    if len(view) == 0:
        return b""
    starts, lengths = _run_bounds(view)
    nchunks = (lengths + 0xFFFE) // 0xFFFF
    total = int(nchunks.sum())
    counts = np.full(total, 0xFFFF, dtype=np.uint32)
    counts[np.cumsum(nchunks) - 1] = lengths - (nchunks - 1) * 0xFFFF
    src = np.repeat(np.arange(len(starts)), nchunks)
    out = np.empty((total, 6), dtype=np.uint8)
    out[:, 0] = counts >> 8
    out[:, 1] = counts & 0xFF
    out[:, 2:6] = flat[starts[src]]
    return out.tobytes()


def rle_encoded_size(pixels: np.ndarray) -> int:
    """Exact byte size :func:`rle_encode` would produce, without
    materialising it (used by encoder-selection hot paths)."""
    view = np.ascontiguousarray(pixels, dtype=np.uint8) \
        .reshape(-1, 4).view(np.uint32).ravel()
    if len(view) == 0:
        return 0
    _, lengths = _run_bounds(view)
    return 6 * int(np.sum((lengths + 0xFFFE) // 0xFFFF))


def rle_decode(body: bytes, total_pixels: int) -> np.ndarray:
    """Invert :func:`rle_encode` into a (total_pixels, 4) uint8 array.

    Raises ValueError unless the runs cover *exactly* the declared
    pixel count with no trailing bytes.
    """
    if len(body) % 6:
        raise ValueError("truncated RLE run")
    pairs = np.frombuffer(body, dtype=np.uint8).reshape(-1, 6)
    counts = (pairs[:, 0].astype(np.int64) << 8) | pairs[:, 1]
    if int(counts.sum()) != total_pixels:
        raise ValueError("RLE data does not match declared dimensions")
    return np.repeat(pairs[:, 2:6], counts, axis=0)
