"""A software framebuffer with the raster operations of 2D display hardware.

Both the simulated window server and every thin-client's client device
render into one of these.  Pixels are 32-bit RGBA (24-bit colour plus an
alpha channel, matching THINC's wire formats); the raster operations map
one-to-one onto the driver-level primitives the THINC protocol mirrors:

=============  =====================================================
operation       protocol analogue
=============  =====================================================
put_pixels      RAW — unencoded pixel data
copy_area       COPY — intra-framebuffer blit (overlap safe)
fill_rect       SFILL — solid colour fill
tile_rect       PFILL — replicate a tile over a region
stipple_rect    BITMAP — 1-bit stipple expanded with fg/bg colours
composite       alpha blending (Porter–Duff "over")
present_video   VFRAME — a YUV frame held as an overlay, composed on read
=============  =====================================================

All operations clip to the framebuffer bounds, so callers may pass
rectangles that hang off an edge.

The fills write whole pixels through a packed ``uint32`` view of the
same ``(H, W, 4) uint8`` buffer — one store per pixel instead of four —
so ``Framebuffer.data`` keeps its byte layout and channel order.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..region import Rect
from ..video import yuv

__all__ = ["Framebuffer", "solid_pixels", "make_tile", "crop_mask",
           "CHANNELS"]

CHANNELS = 4  # RGBA

Color = Tuple[int, int, int, int]


def _pack(color: Color) -> np.uint32:
    """One RGBA colour as the ``uint32`` whose bytes are r, g, b, a."""
    return np.array(color, dtype=np.uint8).view(np.uint32)[0]


def solid_pixels(width: int, height: int, color: Color) -> np.ndarray:
    """An RGBA pixel block of the given size filled with one colour."""
    block = np.full((height, width), _pack(color), dtype=np.uint32)
    return block.view(np.uint8).reshape(height, width, CHANNELS)


def make_tile(pattern: np.ndarray) -> np.ndarray:
    """Validate and normalise a tile image to RGBA uint8."""
    tile = np.asarray(pattern, dtype=np.uint8)
    if tile.ndim != 3 or tile.shape[2] != CHANNELS:
        raise ValueError(f"tile must be HxWx{CHANNELS} RGBA, got {tile.shape}")
    if tile.shape[0] == 0 or tile.shape[1] == 0:
        raise ValueError("tile must be non-empty")
    return tile


def crop_mask(mask: np.ndarray, rect: Rect, drawn: Rect) -> np.ndarray:
    """The bits of a stipple laid over *rect* that land on *drawn*.

    A rect-sized mask is sliced, not gathered; any other size is
    indexed in rect-local coordinates, wrapping so small stipples tile
    across larger rects.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape == (rect.height, rect.width):
        return mask[drawn.y - rect.y : drawn.y2 - rect.y,
                    drawn.x - rect.x : drawn.x2 - rect.x]
    ys = (np.arange(drawn.y, drawn.y2) - rect.y) % mask.shape[0]
    xs = (np.arange(drawn.x, drawn.x2) - rect.x) % mask.shape[1]
    return mask[np.ix_(ys, xs)]


class Framebuffer:
    """An RGBA pixel raster supporting hardware-style 2D operations."""

    def __init__(self, width: int, height: int, fill: Color = (0, 0, 0, 255)):
        if width <= 0 or height <= 0:
            raise ValueError("framebuffer dimensions must be positive")
        self.width = width
        self.height = height
        self._data = solid_pixels(width, height, fill)
        # The same buffer, one uint32 per pixel (see the module doc).
        self._packed = self._data.view(np.uint32)[..., 0]
        self._overlay: Optional[tuple] = None  # see present_video
        # Counts every pixel written; used to measure drawing work.
        self.pixels_drawn = 0

    @property
    def data(self) -> np.ndarray:
        """The ``(H, W, 4)`` RGBA pixels, with any held frame composed."""
        if self._overlay:
            self._settle()
        return self._data

    # -- geometry helpers ---------------------------------------------------

    @property
    def bounds(self) -> Rect:
        return Rect(0, 0, self.width, self.height)

    def _clip(self, rect: Rect) -> Rect:
        return rect.intersect(self.bounds)

    def _view(self, rect: Rect) -> np.ndarray:
        if self._overlay:
            self._settle()
        return self._data[rect.y : rect.y2, rect.x : rect.x2]

    def _packed_view(self, rect: Rect) -> np.ndarray:
        if self._overlay:
            self._settle()
        return self._packed[rect.y : rect.y2, rect.x : rect.x2]

    # -- raster operations -----------------------------------------------

    def fill_rect(self, rect: Rect, color: Color) -> Rect:
        """Solid fill (SFILL analogue).  Returns the clipped rect drawn."""
        clipped = self._clip(rect)
        if clipped:
            self._packed_view(clipped)[:, :] = _pack(color)
            self.pixels_drawn += clipped.area
        return clipped

    def tile_rect(self, rect: Rect, tile: np.ndarray,
                  origin: Tuple[int, int] = (0, 0)) -> Rect:
        """Tile fill (PFILL analogue).

        The tile is anchored so that tile pixel (0, 0) lands at *origin*
        in framebuffer space, matching X's tile-origin semantics.
        """
        tile = make_tile(tile)
        clipped = self._clip(rect)
        if not clipped:
            return clipped
        packed = np.ascontiguousarray(tile).view(np.uint32)[..., 0]
        th, tw = packed.shape
        ys = (np.arange(clipped.y, clipped.y2) - origin[1]) % th
        xs = (np.arange(clipped.x, clipped.x2) - origin[0]) % tw
        # Widen the tile's rows first, then repeat them down the rect:
        # two 1-D gathers instead of one per pixel.
        self._packed_view(clipped)[:, :] = packed[:, xs][ys]
        self.pixels_drawn += clipped.area
        return clipped

    def stipple_rect(self, rect: Rect, bitmap: np.ndarray,
                     fg: Color, bg: Optional[Color] = None) -> Rect:
        """Bitmap fill (BITMAP analogue).

        *bitmap* is a boolean HxW mask sized to *rect* (it is cropped or
        tiled as needed).  Ones take the foreground colour; zeros take the
        background colour, or are left untouched when *bg* is ``None``
        (a transparent stipple, as used for glyph text).
        """
        mask = np.asarray(bitmap, dtype=bool)
        if mask.ndim != 2:
            raise ValueError("bitmap must be a 2-D boolean mask")
        clipped = self._clip(rect)
        if not clipped:
            return clipped
        local = crop_mask(mask, rect, clipped)
        view = self._packed_view(clipped)
        if bg is None:
            view[local] = _pack(fg)
        else:
            view[:, :] = np.where(local, _pack(fg), _pack(bg))
        self.pixels_drawn += clipped.area
        return clipped

    def put_pixels(self, rect: Rect, pixels: np.ndarray) -> Rect:
        """Raw pixel store (RAW analogue).  *pixels* must be rect-sized."""
        clipped = self._store(rect, pixels)
        self.pixels_drawn += clipped.area
        return clipped

    def _store(self, rect: Rect, pixels: np.ndarray) -> Rect:
        pixels = np.asarray(pixels, dtype=np.uint8)
        if pixels.shape != (rect.height, rect.width, CHANNELS):
            raise ValueError(
                f"pixel block {pixels.shape} does not match {rect!r}"
            )
        clipped = self._clip(rect)
        if clipped:
            self._view(clipped)[:, :] = pixels[
                clipped.y - rect.y : clipped.y2 - rect.y,
                clipped.x - rect.x : clipped.x2 - rect.x,
            ]
        return clipped

    def present_video(self, rect: Rect, pixel_format: str, yuv_bytes,
                      src_width: int, src_height: int) -> Rect:
        """Show a YUV frame scaled onto *rect*, as an overlay: checked and
        counted as drawn now, composed as :meth:`put_pixels` would store
        it only when something next reads or draws.  A frame whose rect
        contains the held one's replaces it unseen."""
        data = bytes(yuv_bytes)
        # frame_size also refuses an unknown format and odd YV12 sizes.
        expected = yuv.frame_size(pixel_format, src_width, src_height)
        if src_width <= 0 or src_height <= 0 or not rect:
            raise ValueError("video source and destination must be non-empty")
        if len(data) != expected:
            raise ValueError(f"frame is {len(data)} bytes, expected {expected}")
        clipped = self._clip(rect)
        if clipped:
            if self._overlay and not rect.contains(self._overlay[0]):
                self._settle()
            self._overlay = (rect, pixel_format, data, src_width, src_height)
            self.pixels_drawn += clipped.area
        return clipped

    def _settle(self) -> None:
        """Compose the held frame; the tracer sees both yuv calls."""
        rect, pixel_format, data, src_width, src_height = self._overlay
        self._overlay = None
        rgba = yuv.decode_frame(pixel_format, data, src_width, src_height)
        self._store(rect, yuv.scale_rgb(rgba, rect.width, rect.height))

    def composite(self, rect: Rect, pixels: np.ndarray) -> Rect:
        """Porter–Duff "over" blend of an RGBA block onto the framebuffer."""
        from .compositing import over

        pixels = np.asarray(pixels, dtype=np.uint8)
        if pixels.shape != (rect.height, rect.width, CHANNELS):
            raise ValueError(
                f"pixel block {pixels.shape} does not match {rect!r}"
            )
        clipped = self._clip(rect)
        if not clipped:
            return clipped
        sub = pixels[
            clipped.y - rect.y : clipped.y2 - rect.y,
            clipped.x - rect.x : clipped.x2 - rect.x,
        ]
        view = self._view(clipped)
        view[:, :] = over(sub, view)
        self.pixels_drawn += clipped.area
        return clipped

    def copy_area(self, src: Rect, dst_x: int, dst_y: int) -> Rect:
        """Intra-framebuffer blit (COPY analogue), safe for overlap.

        Both source and destination are clipped to the framebuffer; when
        the source is clipped, the destination shrinks in step so that the
        copied pixels stay aligned.
        """
        src_clipped = self._clip(src)
        if not src_clipped:
            return src_clipped
        dx = dst_x + (src_clipped.x - src.x)
        dy = dst_y + (src_clipped.y - src.y)
        dst = Rect(dx, dy, src_clipped.width, src_clipped.height)
        dst_clipped = self._clip(dst)
        if not dst_clipped:
            return dst_clipped
        # Shrink the source to the part whose destination survived clipping.
        src_final = Rect(
            src_clipped.x + (dst_clipped.x - dst.x),
            src_clipped.y + (dst_clipped.y - dst.y),
            dst_clipped.width,
            dst_clipped.height,
        )
        # np copy of the source first makes overlapping copies safe.
        block = self._view(src_final).copy()
        self._view(dst_clipped)[:, :] = block
        self.pixels_drawn += dst_clipped.area
        return dst_clipped

    def read_pixels(self, rect: Rect) -> np.ndarray:
        """Return a copy of the pixels in *rect* (clipped)."""
        clipped = self._clip(rect)
        return self._view(clipped).copy()

    def clone(self) -> "Framebuffer":
        """An independent same-size copy of this framebuffer's contents.

        The sanctioned way for other layers to duplicate a framebuffer
        (e.g. to composite an overlay for display) without touching the
        backing array, which belongs to ``repro.display``.
        """
        out = Framebuffer(self.width, self.height)
        np.copyto(out._data, self.data)
        return out

    # -- comparison helpers (used heavily by integration tests) -----------

    def same_as(self, other: "Framebuffer") -> bool:
        return (
            self.width == other.width
            and self.height == other.height
            and bool(np.array_equal(self.data, other.data))
        )

    def diff_area(self, other: "Framebuffer") -> int:
        """Number of pixels that differ between two same-size framebuffers."""
        if (self.width, self.height) != (other.width, other.height):
            raise ValueError("framebuffer sizes differ")
        return int(np.any(self.data != other.data, axis=2).sum())

    def checksum(self) -> int:
        """A cheap content hash for change detection in tests."""
        import zlib

        return zlib.adler32(self.data.tobytes())

    def __repr__(self) -> str:
        return f"Framebuffer({self.width}x{self.height})"
