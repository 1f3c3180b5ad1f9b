"""Pre-PR-19 YUV decode, kept verbatim as the oracle for its successor.

PR 19 replaced the ``float64`` YUV -> RGB conversion in
``repro.video.yuv`` with integer tables that promise output bit-for-bit
equal to what the code below produces for every (Y, U, V) triple, and
gave ``scale_rgb`` a packed two-step gather that promises the pixels of
the ``np.ix_`` gather below.  The equivalence tests compare against
these.

Nothing here is used by ``src/repro``; do not "optimise" it.
"""

import numpy as np


def yv12_to_rgb_ref(y, v, u):
    y = np.asarray(y, dtype=np.float64)
    # Upsample chroma by pixel replication (what cheap hardware does).
    uf = np.repeat(np.repeat(np.asarray(u, dtype=np.float64), 2, 0), 2, 1)
    vf = np.repeat(np.repeat(np.asarray(v, dtype=np.float64), 2, 0), 2, 1)
    uf = uf[: y.shape[0], : y.shape[1]] - 128.0
    vf = vf[: y.shape[0], : y.shape[1]] - 128.0
    r = y + 1.402 * vf
    g = y - 0.344136 * uf - 0.714136 * vf
    b = y + 1.772 * uf
    rgb = np.stack([r, g, b], axis=-1)
    return np.clip(np.rint(rgb), 0, 255).astype(np.uint8)


def yuy2_to_rgb_ref(data, width, height):
    packed = np.frombuffer(data, dtype=np.uint8).reshape(height, width * 2)
    y = np.empty((height, width), dtype=np.float64)
    y[:, 0::2] = packed[:, 0::4]
    y[:, 1::2] = packed[:, 2::4]
    u = np.repeat(packed[:, 1::4], 2, axis=1).astype(np.float64) - 128.0
    v = np.repeat(packed[:, 3::4], 2, axis=1).astype(np.float64) - 128.0
    r = y + 1.402 * v
    g = y - 0.344136 * u - 0.714136 * v
    b = y + 1.772 * u
    rgb = np.stack([r, g, b], axis=-1)
    return np.clip(np.rint(rgb), 0, 255).astype(np.uint8)


def scale_rgb_ref(rgb, width, height):
    rgb = np.asarray(rgb)
    src_h, src_w = rgb.shape[0], rgb.shape[1]
    ys = (np.arange(height) * src_h // height).clip(0, src_h - 1)
    xs = (np.arange(width) * src_w // width).clip(0, src_w - 1)
    return rgb[np.ix_(ys, xs)]
