"""The Fant resampler is the exact area average, rounded half-to-even.

Three independent statements of that sentence check ``resample``:
``fractions.Fraction`` interval overlaps (1-D, exhaustive over small
axis pairs), a dense integer weight matrix without the gcd reduction
(2-D, used to find the rounding ties), and the retired float kernel in
``reference_resize.py`` (equal on every pixel that is not a tie).
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.resize import resample

from . import reference_resize


def fraction_average(row, dst_len):
    """Half-even rounded area averages of a 1-D row, in rationals."""
    scale = Fraction(len(row), dst_len)
    out = []
    for j in range(dst_len):
        lo, hi = j * scale, (j + 1) * scale
        area = sum((min(hi, i + 1) - max(lo, i)) * int(v)
                   for i, v in enumerate(row)
                   if min(hi, i + 1) > max(lo, i))
        out.append(round(area / scale))       # Fraction rounds half-even
    return out


def dense_weights(src_len, dst_len):
    """W[j, i] = overlap of dest j and source i, in 1/dst_len pixels."""
    j = np.arange(dst_len, dtype=np.int64)[:, None]
    i = np.arange(src_len, dtype=np.int64)[None, :]
    return np.maximum(0, np.minimum((j + 1) * src_len, (i + 1) * dst_len)
                      - np.maximum(j * src_len, i * dst_len))


def exact(img, dst_w, dst_h):
    """(numerator, denominator) of every output sample, unreduced."""
    h, w = img.shape[:2]
    rows = np.einsum("jh,hwc->jwc", dense_weights(h, dst_h),
                     img.reshape(h, w, -1), dtype=np.int64)
    num = np.einsum("kw,jwc->jkc", dense_weights(w, dst_w), rows)
    return num.reshape((dst_h, dst_w) + img.shape[2:]), h * w


def half_even(num, den):
    q, r = np.divmod(num, den)
    return q + ((2 * r > den) | ((2 * r == den) & (q % 2 == 1)))


def test_matches_fraction_average_on_every_small_axis_pair():
    rng = np.random.default_rng(21)
    ties = 0
    for src in range(1, 13):
        for dst in range(1, 13):
            rows = rng.integers(0, 256, (3, src), dtype=np.uint8)
            want = [fraction_average(row, dst) for row in rows]
            assert resample(rows, dst, 3).tolist() == want
            assert resample(rows.T, 3, dst).T.tolist() == want
            num, den = exact(rows, dst, 3)
            ties += int((2 * num % (2 * den) == den).sum())
    assert ties > 100           # the half-even branch was exercised


def _non_contiguous(img, how):
    if how == "strided":
        wide = np.repeat(np.repeat(img, 2, axis=0), 2, axis=1)
        wide[1::2] ^= 0xFF      # the skipped samples must not leak in
        wide[:, 1::2] ^= 0xFF
        return wide[::2, ::2]
    if how == "fortran":
        return np.asfortranarray(img)
    return img


@given(st.integers(1, 24), st.integers(1, 24),
       st.sampled_from(["down", "up", "same", "any"]),
       st.sampled_from(["down", "up", "same", "any"]),
       st.sampled_from([None, 1, 3, 4]),
       st.sampled_from(["contiguous", "strided", "fortran", "sliced"]),
       st.data())
@settings(max_examples=120, deadline=None)
def test_equals_float_kernel_off_ties_and_half_even_on_them(
        w, h, mode_x, mode_y, channels, layout, data):
    def target(src, mode):
        lo, hi = {"down": (1, src), "up": (src, 40), "same": (src, src),
                  "any": (1, 40)}[mode]
        return data.draw(st.integers(lo, hi))

    dst_w, dst_h = target(w, mode_x), target(h, mode_y)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    if layout == "sliced" and channels is not None:
        img = rng.integers(0, 256, (h, w, channels + 1),
                           dtype=np.uint8)[..., :channels]
    else:
        shape = (h, w) if channels is None else (h, w, channels)
        img = _non_contiguous(
            rng.integers(0, 256, shape, dtype=np.uint8), layout)
    out = resample(img, dst_w, dst_h)
    assert out.dtype == np.uint8
    assert out.shape == (dst_h, dst_w) + img.shape[2:]
    num, den = exact(np.ascontiguousarray(img), dst_w, dst_h)
    assert np.array_equal(out, half_even(num, den))
    tie = 2 * num % (2 * den) == den
    old = reference_resize.resample(img, dst_w, dst_h)
    assert np.array_equal(out[~tie], old[~tie])
    assert np.all(np.abs(out[tie].astype(int) - old[tie]) <= 1)


def test_wide_accumulator_when_int32_would_wrap():
    """255 * S_y * S_x > 2**31: the numerator needs the int64 path."""
    img = np.full((2917, 2927), 255, dtype=np.uint8)
    img[::7, ::5] = 250
    num, den = exact(img, 3, 2)
    assert num.min() > 2 ** 31
    assert np.array_equal(resample(img, 3, 2), half_even(num, den))


def test_flat_stays_exactly_flat():
    for value in (0, 1, 77, 254, 255):
        img = np.full((10, 14, 4), value, dtype=np.uint8)
        for dims in [(3, 3), (7, 5), (14, 4), (20, 13), (35, 10)]:
            assert np.all(resample(img, *dims) == value)


def test_same_size_is_a_uint8_copy():
    img = np.arange(5 * 3 * 4, dtype=np.uint8).reshape(5, 3, 4)
    out = resample(img, 3, 5)
    assert out.dtype == np.uint8 and np.array_equal(out, img)
    assert not np.shares_memory(out, img)


@pytest.mark.parametrize("dst", [(0, 4), (4, 0), (-1, 4)])
def test_rejects_non_positive_target(dst):
    with pytest.raises(ValueError):
        resample(np.zeros((4, 4, 4), np.uint8), *dst)


@pytest.mark.parametrize("shape", [(0, 5, 4), (5, 0, 4), (0, 0)])
def test_rejects_empty_source(shape):
    with pytest.raises(ValueError):
        resample(np.zeros(shape, np.uint8), 3, 2)
