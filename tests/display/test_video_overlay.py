"""Video as an overlay: ``Framebuffer.present_video`` holds a YUV frame
and composes it only when something reads or draws.

The property drives a lazy framebuffer and an eager reference (decode →
scale → ``put_pixels``, what presenting did before) through the same
interleaving of presents and raster ops, and checks every step: the
returned rects and reads, ``pixels_drawn``, and — at the steps that
look — the bytes.  Steps that do not look leave the frame held, so a
later present meets it still pending.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.display import Framebuffer, RecordingDriver, WindowServer
from repro.region import Rect
from repro.video import yuv

W, H = 24, 16


def _bytes(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8)


def _block(seed: int, rect: Rect) -> np.ndarray:
    return _bytes(seed, rect.area * 4).reshape(rect.height, rect.width, 4)


def _frame(fmt: str, w: int, h: int, seed: int) -> bytes:
    return _bytes(seed, yuv.frame_size(fmt, w, h)).tobytes()


def eager_present(fb, rect, fmt, data, w, h):
    rgba = yuv.decode_frame(fmt, data, w, h)
    return fb.put_pixels(rect, yuv.scale_rgb(rgba, rect.width, rect.height))


rects = st.builds(Rect, st.integers(-6, W + 2), st.integers(-6, H + 2),
                  st.integers(1, W + 6), st.integers(1, H + 6))
colors = st.tuples(st.integers(0, 255), st.integers(0, 255),
                   st.integers(0, 255), st.just(255))
seeds = st.integers(0, 2**16)
#: How a frame's dest relates to the held frame's: its own rect, the
#: same rect, one grown around it (replaces it) or shrunk inside it.
placements = st.sampled_from(["rect", "same", "grow", "shrink"])
frames = st.one_of(
    st.tuples(st.just("YV12"), st.sampled_from([2, 4, 6, 8]),
              st.sampled_from([2, 4, 6])),
    st.tuples(st.just("YUY2"), st.sampled_from([2, 4, 6]),
              st.integers(1, 5)))

ops = st.one_of(
    st.tuples(st.just("present"), placements, rects, frames, seeds),
    st.tuples(st.just("fill"), rects, colors),
    st.tuples(st.just("tile"), rects, seeds, st.integers(-3, 3)),
    st.tuples(st.just("stipple"), rects, seeds, colors,
              st.none() | colors),
    st.tuples(st.just("put"), rects, seeds),
    st.tuples(st.just("composite"), rects, seeds),
    st.tuples(st.just("copy"), rects, st.integers(-4, W),
              st.integers(-4, H)),
    st.tuples(st.just("read"), rects),
    st.tuples(st.just("clone")),
    st.tuples(st.just("checksum")),
    st.tuples(st.just("look")),
)


def _placed(how: str, rect: Rect, last: Rect) -> Rect:
    if how == "same" and last:
        return last
    if how == "grow" and last:
        return Rect(last.x - 1, last.y, last.width + 3, last.height + 1)
    if how == "shrink" and last.width > 2 and last.height > 2:
        return Rect(last.x + 1, last.y + 1, last.width - 2, last.height - 2)
    return rect


def _step(fb: Framebuffer, op, last: Rect, present):
    """Run *op* on *fb*, presenting through *present*; the result to
    compare and the last video dest."""
    name, args = op[0], op[1:]
    if name == "present":
        how, rect, (fmt, w, h), seed = args
        rect = _placed(how, rect, last)
        return present(fb, rect, fmt, _frame(fmt, w, h, seed), w, h), rect
    if name == "fill":
        return fb.fill_rect(*args), last
    if name == "tile":
        rect, seed, origin = args
        tile = _block(seed, Rect(0, 0, 3, 2))
        return fb.tile_rect(rect, tile, (origin, -origin)), last
    if name == "stipple":
        rect, seed, fg, bg = args
        mask = _bytes(seed, rect.area).reshape(rect.height, rect.width) > 127
        return fb.stipple_rect(rect, mask, fg, bg), last
    if name == "put":
        rect, seed = args
        return fb.put_pixels(rect, _block(seed, rect)), last
    if name == "composite":
        rect, seed = args
        return fb.composite(rect, _block(seed, rect)), last
    if name == "copy":
        return fb.copy_area(*args), last
    if name == "read":
        return fb.read_pixels(*args).tobytes(), last
    if name == "clone":
        return fb.clone().data.tobytes(), last
    if name == "checksum":
        return fb.checksum(), last
    return fb.data.tobytes(), last


class TestOverlayMatchesEagerPresent:
    @given(st.lists(ops, min_size=1, max_size=14))
    @settings(max_examples=200, deadline=None)
    def test_every_step_matches(self, steps):
        lazy, eager = Framebuffer(W, H), Framebuffer(W, H)
        last_lazy = last_eager = Rect(0, 0, 0, 0)
        for op in steps:
            got, last_lazy = _step(lazy, op, last_lazy,
                                   Framebuffer.present_video)
            want, last_eager = _step(eager, op, last_eager, eager_present)
            assert got == want, op
            assert lazy.pixels_drawn == eager.pixels_drawn, op
        assert lazy.same_as(eager)
        assert lazy.diff_area(eager) == 0


def _counting(monkeypatch) -> Counter:
    entered = Counter()
    inner = yuv.decode_frame

    def decode(*args):
        entered["decode"] += 1
        return inner(*args)
    monkeypatch.setattr(yuv, "decode_frame", decode)
    return entered


class TestHeldFrame:
    def test_a_frame_over_the_held_one_replaces_it_unseen(self, monkeypatch):
        entered = _counting(monkeypatch)
        fb = Framebuffer(W, H)
        for i, dest in enumerate([Rect(2, 2, 8, 6), Rect(2, 2, 8, 6),
                                  Rect(0, 0, 12, 8)]):
            fb.present_video(dest, "YV12", _frame("YV12", 4, 2, i), 4, 2)
        assert not entered
        fb.checksum()
        assert entered["decode"] == 1

    def test_a_frame_beside_the_held_one_composes_it_first(self, monkeypatch):
        entered = _counting(monkeypatch)
        fb = Framebuffer(W, H)
        fb.present_video(Rect(0, 0, 8, 6), "YV12", _frame("YV12", 4, 2, 0),
                         4, 2)
        fb.present_video(Rect(4, 4, 8, 6), "YV12", _frame("YV12", 4, 2, 1),
                         4, 2)
        assert entered["decode"] == 1
        fb.checksum()
        assert entered["decode"] == 2


class TestBadFrameFailsAtPresent:
    GOOD = _frame("YV12", 4, 2, 0)

    @pytest.mark.parametrize("dest,fmt,data,w,h", [
        (Rect(0, 0, 8, 4), "YV12", GOOD[:-1], 4, 2),     # short
        (Rect(0, 0, 8, 4), "YV12", GOOD + b"\0", 4, 2),  # long
        (Rect(0, 0, 8, 4), "RGB24", GOOD, 4, 2),         # format
        (Rect(0, 0, 8, 4), "YV12", GOOD, 3, 2),          # odd YV12
        (Rect(0, 0, 8, 4), "YV12", b"", 0, 0),           # empty source
        (Rect(0, 0, 0, 4), "YV12", GOOD, 4, 2),          # empty dest
    ])
    def test_present_checks_the_frame(self, dest, fmt, data, w, h):
        fb = Framebuffer(W, H)
        before = fb.checksum()
        with pytest.raises(ValueError):
            fb.present_video(dest, fmt, data, w, h)
        assert fb.pixels_drawn == 0
        assert fb.checksum() == before

    def test_put_frame_raises_before_counting_or_shipping(self):
        ws = WindowServer(W, H, driver=RecordingDriver())
        stream = ws.video_create_stream("YV12", 4, 2, Rect(0, 0, 8, 4))
        with pytest.raises(ValueError):
            ws.video_put_frame(stream, self.GOOD[:-1])
        assert stream.frames_put == 0
        assert "video_put" not in ws.driver.names()

    @pytest.mark.parametrize("wrap", [bytearray, memoryview],
                             ids=["bytearray", "memoryview"])
    def test_a_mutable_frame_is_copied_at_present(self, wrap):
        fb, ref = Framebuffer(W, H), Framebuffer(W, H)
        buf = bytearray(self.GOOD)
        fb.present_video(Rect(0, 0, 8, 4), "YV12",
                         buf if wrap is bytearray else memoryview(buf), 4, 2)
        buf[:] = bytes(len(buf))
        eager_present(ref, Rect(0, 0, 8, 4), "YV12", self.GOOD, 4, 2)
        assert fb.same_as(ref)
