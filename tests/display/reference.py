"""Pre-PR-12 display code, kept verbatim as the oracle for its successors.

PR 12 moved the framebuffer fills onto a packed ``uint32`` view and gave
text a run-level path.  Both promise output that is bit-for-bit what the
code below produces, so the equivalence tests compare against it:

* the byte-wise ``fill_rect`` / ``tile_rect`` / ``stipple_rect`` /
  ``solid_pixels`` kernels, as functions over a ``Framebuffer``;
* the per-glyph ``draw_text`` loop with its ``np.ix_`` mask crops, as a
  ``WindowServer`` subclass that rasterises through the kernels above;
* ``render_text_mask`` as one slice assignment per glyph, the oracle
  for the line mask built from cached cells.

Nothing here is used by ``src/repro``; do not "optimise" it.
"""

import numpy as np

from repro.display import WindowServer
from repro.display.font import (ADVANCE, GLYPH_HEIGHT, GLYPH_WIDTH,
                                glyph_bitmap, text_extent)
from repro.display.framebuffer import CHANNELS, make_tile
from repro.region import Rect


def solid_pixels_ref(width, height, color):
    block = np.empty((height, width, CHANNELS), dtype=np.uint8)
    block[:, :] = np.asarray(color, dtype=np.uint8)
    return block


def fill_rect_ref(fb, rect, color):
    clipped = fb._clip(rect)
    if clipped:
        fb._view(clipped)[:, :] = np.asarray(color, dtype=np.uint8)
        fb.pixels_drawn += clipped.area
    return clipped


def tile_rect_ref(fb, rect, tile, origin=(0, 0)):
    tile = make_tile(tile)
    clipped = fb._clip(rect)
    if not clipped:
        return clipped
    th, tw = tile.shape[0], tile.shape[1]
    ys = (np.arange(clipped.y, clipped.y2) - origin[1]) % th
    xs = (np.arange(clipped.x, clipped.x2) - origin[0]) % tw
    fb._view(clipped)[:, :] = tile[np.ix_(ys, xs)]
    fb.pixels_drawn += clipped.area
    return clipped


def stipple_rect_ref(fb, rect, bitmap, fg, bg=None):
    mask = np.asarray(bitmap, dtype=bool)
    if mask.ndim != 2:
        raise ValueError("bitmap must be a 2-D boolean mask")
    clipped = fb._clip(rect)
    if not clipped:
        return clipped
    ys = (np.arange(clipped.y, clipped.y2) - rect.y) % mask.shape[0]
    xs = (np.arange(clipped.x, clipped.x2) - rect.x) % mask.shape[1]
    local = mask[np.ix_(ys, xs)]
    view = fb._view(clipped)
    view[local] = np.asarray(fg, dtype=np.uint8)
    if bg is not None:
        view[~local] = np.asarray(bg, dtype=np.uint8)
    fb.pixels_drawn += clipped.area
    return clipped


def crop_mask_ref(mask, intended, drawn):
    mask = np.asarray(mask, dtype=bool)
    ys = (np.arange(drawn.y, drawn.y2) - intended.y) % mask.shape[0]
    xs = (np.arange(drawn.x, drawn.x2) - intended.x) % mask.shape[1]
    return mask[np.ix_(ys, xs)]


def render_text_mask_ref(text):
    width, height = text_extent(text)
    mask = np.zeros((height, max(width, 1)), dtype=bool)
    for i, ch in enumerate(text):
        x = i * ADVANCE
        mask[:, x : x + GLYPH_WIDTH] = glyph_bitmap(ch)
    return mask


class PerGlyphWindowServer(WindowServer):
    """A window server whose ``draw_text`` is the pre-PR-12 loop."""

    def draw_text(self, drawable, x, y, text, fg):
        self._check(drawable)
        bounds = Rect(x, y, max(len(text) * ADVANCE - 1, 1), GLYPH_HEIGHT)
        for i, ch in enumerate(text):
            glyph_rect = Rect(x + i * ADVANCE, y, GLYPH_WIDTH, GLYPH_HEIGHT)
            mask = glyph_bitmap(ch)
            for piece in self._clip_pieces(glyph_rect):
                piece_mask = crop_mask_ref(mask, glyph_rect, piece)
                drawn = stipple_rect_ref(drawable.fb, piece, piece_mask, fg,
                                         None)
                if drawn:
                    local = crop_mask_ref(piece_mask, piece, drawn)
                    self.driver.bitmap_fill(drawable, drawn, local, fg,
                                            None)
        self._notify("draw_text", drawable, bounds, text)
        return bounds
