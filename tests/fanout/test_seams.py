"""Hypothesis property suite for tile-wall seam exactness.

Satellite of the fan-out PR: for random command streams over random
wall partitions, clipping each command per-tile through the session
scaler and reassembling the tiles must reproduce the single
framebuffer byte-for-byte.  Seam bugs (off-by-one clips, rounding at
non-divisible grid edges, copies straddling tiles) all surface here.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import Encoding
from repro.core.fanout import TileWall
from repro.core.resize import DisplayScaler
from repro.display import Framebuffer
from repro.protocol.commands import (CopyCommand, RawCommand, SFillCommand)
from repro.region import Rect


def _rects(w, h):
    return st.tuples(
        st.integers(0, w - 1), st.integers(0, h - 1)).flatmap(
            lambda origin: st.builds(
                Rect, st.just(origin[0]), st.just(origin[1]),
                st.integers(1, w - origin[0]),
                st.integers(1, h - origin[1])))


def _commands(w, h):
    rects = _rects(w, h)
    colors = st.tuples(*[st.integers(0, 255)] * 3).map(
        lambda c: c + (255,))
    fills = st.builds(SFillCommand, rects, colors)
    raws = st.tuples(rects, st.integers(0, 2 ** 31 - 1)).map(
        lambda ra: RawCommand(
            ra[0],
            np.random.default_rng(ra[1]).integers(
                0, 256, (ra[0].height, ra[0].width, 4), dtype=np.uint8),
            Encoding.NONE))
    copies = st.tuples(rects, st.integers(0, w - 1),
                       st.integers(0, h - 1)).map(
        lambda rc: CopyCommand(
            min(rc[1], w - rc[0].width),
            min(rc[2], h - rc[0].height),
            rc[0]))
    return st.one_of(fills, raws, copies)


def _wall_case():
    return st.tuples(
        st.integers(16, 128), st.integers(16, 96),
        st.integers(1, 5), st.integers(1, 4)).flatmap(
            lambda case: st.tuples(
                st.just(case),
                st.lists(_commands(case[0], case[1]), min_size=1,
                         max_size=8)))


class TestTileSeams:

    def test_grid_partitions_exactly(self):
        for (w, h, cols, rows) in ((96, 64, 3, 2), (97, 63, 5, 4),
                                   (16, 16, 5, 4), (128, 96, 1, 1)):
            tiles = TileWall.grid(w, h, cols, rows)
            assert len(tiles) == cols * rows
            covered = np.zeros((h, w), dtype=np.uint8)
            for t in tiles:
                assert not t.empty
                covered[t.y:t.y + t.height, t.x:t.x + t.width] += 1
            assert covered.min() == 1 and covered.max() == 1

    @settings(max_examples=60, deadline=None)
    @given(case=_wall_case())
    def test_reassembled_wall_is_byte_identical(self, case):
        (w, h, cols, rows), commands = case
        tiles = TileWall.grid(w, h, cols, rows)
        wall = Framebuffer(w, h)
        scalers = [DisplayScaler((w, h), (t.width, t.height), view_rect=t)
                   for t in tiles]
        tile_fbs = [Framebuffer(t.width, t.height) for t in tiles]

        for cmd in commands:
            # Server ordering: the screen framebuffer is updated before
            # the command is submitted, so COPY materialisation reads
            # post-copy content.
            cmd.apply(wall)
            for scaler, fb in zip(scalers, tile_fbs):
                for part in scaler.scale_command(
                        cmd, read_back=wall.read_pixels):
                    part.apply(fb)

        stitched = np.zeros((h, w, 4), dtype=np.uint8)
        for t, fb in zip(tiles, tile_fbs):
            stitched[t.y:t.y + t.height, t.x:t.x + t.width] = fb.data
        assert np.array_equal(stitched, wall.data), \
            "tile reassembly diverged from the single framebuffer"

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1))
    def test_copy_straddling_seams_materialises(self, seed):
        """A COPY whose source crosses a tile boundary cannot be
        replayed from the tile's own pixels; the scaler must fall back
        to RAW and stay byte-exact."""
        rng = np.random.default_rng(seed)
        w, h = 64, 48
        wall = Framebuffer(w, h)
        wall.put_pixels(Rect(0, 0, w, h), rng.integers(
            0, 256, (h, w, 4), dtype=np.uint8))
        tiles = TileWall.grid(w, h, 2, 2)
        # Source in the top-left quadrant, destination bottom-right.
        copy = CopyCommand(4, 4, Rect(w // 2 + 2, h // 2 + 2, 16, 12))
        copy.apply(wall)
        scaler = DisplayScaler((w, h), (tiles[3].width, tiles[3].height),
                               view_rect=tiles[3])
        fb = Framebuffer(tiles[3].width, tiles[3].height)
        fb.put_pixels(
            Rect(0, 0, fb.width, fb.height),
            wall.read_pixels(tiles[3]))
        # Re-apply through the scaler onto a stale tile to prove the
        # materialised RAW carries the correct bytes by itself.
        parts = scaler.scale_command(copy, read_back=wall.read_pixels)
        assert parts and all(isinstance(p, RawCommand) for p in parts)
        for part in parts:
            part.apply(fb)
        t = tiles[3]
        assert np.array_equal(fb.data, wall.data[t.y:t.y + t.height,
                                                 t.x:t.x + t.width])
