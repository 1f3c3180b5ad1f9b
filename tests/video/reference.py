"""The float YUV conversions, kept verbatim as oracles for their successors.

PR 19 replaced the ``float64`` YUV -> RGB conversion in
``repro.video.yuv`` with integer tables that promise output bit-for-bit
equal to what the code below produces for every (Y, U, V) triple, and
gave ``scale_rgb`` a packed two-step gather that promises the pixels of
the ``np.ix_`` gather below.  The forward RGB -> YV12 conversion went
16-bit fixed point later; it promises every sample within one code
value of :func:`rgb_to_yv12_ref`.  The equivalence tests compare
against these.

Nothing here is used by ``src/repro``; do not "optimise" it.
"""

import numpy as np


def rgb_to_yv12_ref(rgb):
    rgb = np.asarray(rgb, dtype=np.float64)
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    y = 0.299 * r + 0.587 * g + 0.114 * b
    u = -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0
    v = 0.5 * r - 0.418688 * g - 0.081312 * b + 128.0

    def subsample(plane):
        h, w = plane.shape
        return plane.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))

    y8 = np.clip(np.rint(y), 0, 255).astype(np.uint8)
    u8 = np.clip(np.rint(subsample(u)), 0, 255).astype(np.uint8)
    v8 = np.clip(np.rint(subsample(v)), 0, 255).astype(np.uint8)
    return y8, v8, u8


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
