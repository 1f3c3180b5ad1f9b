"""Batched numpy kernels for the pixel codecs.

Every kernel here is written so Python-level iteration is at most
O(rows + columns) — never per pixel, never per run.  The protocol
layer's :mod:`repro.protocol.compression` delegates its filter and RLE
work to these functions; keeping them below the protocol layer (rank 15
in the layer map) lets the command objects use them without the codec
plane ever learning about wire formats.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "up_filter",
    "up_unfilter",
    "rle_encode",
    "rle_encoded_size",
    "rle_decode",
]


def up_filter(pixels: np.ndarray) -> np.ndarray:
    """PNG 'Up' predictor: (H, W, C) pixels into (H, W*C) rows, each
    row minus the row above (uint8 wraps mod 256).

    *pixels* is only read, and may be a view that skips bytes — the RGB
    channels of an RGBA block.  Such a view is filtered channel plane
    by channel plane (C order over channel-first views), so numpy's
    inner loop runs along a row instead of over C bytes, and no packed
    copy of the input is made.
    """
    img = np.asarray(pixels, dtype=np.uint8)
    h, w, c = img.shape
    out = np.empty((h, w * c), dtype=np.uint8)
    if img.flags.c_contiguous:
        src, dst = img.reshape(h, w * c), out
    else:
        src = np.moveaxis(img, -1, 0)
        dst = np.moveaxis(out.reshape(img.shape), -1, 0)
    dst[..., :1, :] = src[..., :1, :]
    np.subtract(src[..., 1:, :], src[..., :-1, :], out=dst[..., 1:, :],
                order="C")
    return out


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
