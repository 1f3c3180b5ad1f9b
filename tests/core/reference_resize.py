"""Pre-PR-21 Fant resampler, kept verbatim as the oracle for its successor.

PR 21 replaced the ``float64`` prefix-sum kernel in
``repro.core.resize`` with exact integer tap tables.  The new kernel
promises the pixels of the code below wherever the exact area average
is not a rounding tie (``k + 1/2``); on a tie the code below lands on
either side, decided by the representation error of ratios such as
``8/5`` in its edge table, and the new kernel rounds half-to-even.
``test_resize_kernel.py`` checks both halves of that promise.

Nothing here is used by ``src/repro``; do not "optimise" it.
"""

import numpy as np


def _resample_axis(arr, dst_len, axis):
    src_len = arr.shape[axis]
    if src_len == dst_len:
        return arr
    moved = np.moveaxis(arr, axis, 0).astype(np.float64)
    # Prefix integral of the source signal: cs[i] = sum of first i pixels.
    cs = np.concatenate(
        [np.zeros((1,) + moved.shape[1:]), np.cumsum(moved, axis=0)], axis=0)
    scale = src_len / dst_len
    edges = np.arange(dst_len + 1) * scale
    idx = np.clip(edges.astype(int), 0, src_len)
    frac = np.clip(edges - idx, 0.0, 1.0)
    # Integral up to a fractional position, by linear interpolation.
    upper = np.clip(idx + 1, 0, src_len)
    vals = cs[idx] + (cs[upper] - cs[idx]) * frac.reshape(
        (-1,) + (1,) * (moved.ndim - 1))
    sums = vals[1:] - vals[:-1]
    out = sums / scale
    return np.moveaxis(out, 0, axis)


def resample(pixels, dst_w, dst_h):
    out = _resample_axis(np.asarray(pixels), dst_h, 0)
    out = _resample_axis(out, dst_w, 1)
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)
