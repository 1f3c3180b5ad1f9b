"""A simulated X-style window server.

Applications issue high-level display commands to the window server.
The server performs the software rendering into the target drawable's
framebuffer (the ground truth used by the correctness tests) and then
invokes the video :class:`~repro.display.driver.DisplayDriver` hooks
with the full semantic information a real driver receives.

Two behaviours of real servers matter for the paper's results and are
modelled explicitly:

* **Glyph text** reaches the driver as a glyph run
  (``DisplayDriver.glyph_run``) that stands for one driver-level
  stipple per glyph, so a line of text is many tiny ``bitmap_fill``
  operations — the small updates THINC aggregates (Section 4).  Only a
  driver that overrides the hook handles the run as a whole.
* **Image rasterisation** proceeds in scan-line chunks, so one large
  ``put_image`` becomes many thin ``put_image`` driver calls that an
  efficient translator must merge.

Application-*level* commands (pre-decomposition) are also published to
registered listeners; the X/NX/RDP/ICA baselines intercept there, which
is exactly where those systems sit architecturally.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Tuple

import numpy as np

from ..region import Rect, Region
from ..video import yuv
from .driver import DisplayDriver, InputEvent, VideoStreamInfo
from .font import (ADVANCE, GLYPH_HEIGHT, GLYPH_WIDTH, glyph_bitmap,
                   glyph_coverage, render_text_mask)
from .framebuffer import crop_mask
from .lines import line_spans, polyline_spans, rect_outline_spans
from .pixmap import Drawable

__all__ = ["WindowServer", "AppCommand", "AppCommandListener"]

Color = Tuple[int, int, int, int]


@dataclass(frozen=True)
class AppCommand:
    """One application-level display command, as seen above the driver."""

    name: str
    drawable_id: int
    onscreen: bool
    rect: Rect
    payload: object = None
    # The live drawable, for systems that need to read back the pixels
    # just rendered (command-forwarding baselines price image content).
    drawable: object = None


class AppCommandListener(Protocol):
    """Interface for systems intercepting application display commands."""

    def on_app_command(self, command: AppCommand) -> None: ...


class _WallClock:
    """Fallback clock when the server runs outside a simulation."""

    now = 0.0


class WindowServer:
    """The display system: screen, pixmaps, rendering, driver dispatch."""

    def __init__(self, width: int, height: int,
                 driver: Optional[DisplayDriver] = None,
                 clock=None, image_chunk_rows: int = 8):
        self.driver: DisplayDriver = driver or DisplayDriver()
        # A driver that owns a screen (THINC's) is drawn on directly.
        self.screen = (self.driver.screen_drawable
                       or Drawable(width, height, onscreen=True))
        self.clock = clock if clock is not None else _WallClock()
        self.image_chunk_rows = max(1, image_chunk_rows)
        self.listeners: List[AppCommandListener] = []
        self.pixmaps: Dict[int, Drawable] = {}
        self.video_streams: Dict[int, VideoStreamInfo] = {}
        self._stream_ids = itertools.count(1)
        # Optional GC clip region: when set, drawing only touches the
        # pixels inside it (X applications clip to exposed areas).
        self._clip: Optional[Region] = None
        self.cursor_image: Optional[np.ndarray] = None
        self.cursor_hotspot: Tuple[int, int] = (0, 0)
        # Operation counters for diagnostics and overhead accounting.
        self.op_counts: Dict[str, int] = {}

    # -- plumbing ---------------------------------------------------------

    def add_listener(self, listener: AppCommandListener) -> None:
        self.listeners.append(listener)

    def _notify(self, name: str, drawable: Drawable, rect: Rect,
                payload: object = None) -> None:
        self.op_counts[name] = self.op_counts.get(name, 0) + 1
        if self.listeners:
            cmd = AppCommand(name, drawable.id, drawable.onscreen,
                             rect, payload, drawable)
            for listener in self.listeners:
                listener.on_app_command(cmd)

    def _check(self, drawable: Drawable) -> None:
        if not drawable.alive:
            raise ValueError(f"{drawable!r} has been destroyed")

    # -- GC clip region ------------------------------------------------------

    def set_clip(self, region) -> None:
        """Install a clip region for subsequent drawing (None clears).

        Accepts a Rect, a Region, or None.  Mirrors X's GC clip masks:
        expose handlers redraw a window through the exposed region.
        """
        if region is None:
            self._clip = None
        elif isinstance(region, Rect):
            self._clip = Region.from_rect(region)
        elif isinstance(region, Region):
            self._clip = region.copy()
        else:
            raise TypeError("clip must be a Rect, Region or None")

    def clip(self, region):
        """Context manager: drawing inside is clipped to *region*."""
        server = self

        class _Clip:
            def __enter__(self):
                self._saved = server._clip
                server.set_clip(region)
                return server

            def __exit__(self, *exc):
                server._clip = self._saved
                return False

        return _Clip()

    def _clip_pieces(self, rect: Rect):
        """The sub-rects of *rect* that survive the current clip."""
        if self._clip is None:
            return [rect] if rect else []
        return [r for r in self._clip.intersect_rect(rect)]

    # -- drawable management -----------------------------------------------

    def create_pixmap(self, width: int, height: int,
                      label: Optional[str] = None) -> Drawable:
        pixmap = Drawable(width, height, onscreen=False, label=label)
        self.pixmaps[pixmap.id] = pixmap
        return pixmap

    def free_pixmap(self, pixmap: Drawable) -> None:
        self._check(pixmap)
        if pixmap.onscreen:
            raise ValueError("cannot free the screen")
        pixmap.destroy()
        del self.pixmaps[pixmap.id]
        self.driver.destroy_drawable(pixmap)

    # -- application display commands ---------------------------------------

    def fill_rect(self, drawable: Drawable, rect: Rect, color: Color) -> Rect:
        """Solid fill: window backgrounds, page backgrounds, rules."""
        self._check(drawable)
        total = Rect(0, 0, 0, 0)
        for piece in self._clip_pieces(rect):
            drawn = drawable.fb.fill_rect(piece, color)
            if drawn:
                self.driver.solid_fill(drawable, drawn, color)
                total = total.union_bounds(drawn)
        self._notify("fill_rect", drawable, total, color)
        return total

    def fill_tiled(self, drawable: Drawable, rect: Rect, tile: np.ndarray,
                   origin: Tuple[int, int] = (0, 0)) -> Rect:
        """Tiled fill: desktop patterns, repeating web backgrounds."""
        self._check(drawable)
        total = Rect(0, 0, 0, 0)
        for piece in self._clip_pieces(rect):
            drawn = drawable.fb.tile_rect(piece, tile, origin)
            if drawn:
                self.driver.pattern_fill(drawable, drawn, tile, origin)
                total = total.union_bounds(drawn)
        self._notify("fill_tiled", drawable, total, tile)
        return total

    def fill_stipple(self, drawable: Drawable, rect: Rect, mask: np.ndarray,
                     fg: Color, bg: Optional[Color] = None) -> Rect:
        """Raw stipple fill, the primitive under glyph rendering."""
        self._check(drawable)
        drawn = drawable.fb.stipple_rect(rect, mask, fg, bg)
        if drawn:
            local = crop_mask(mask, rect, drawn)
            self.driver.bitmap_fill(drawable, drawn, local, fg, bg)
        self._notify("fill_stipple", drawable, drawn, (fg, bg))
        return drawn

    def draw_text(self, drawable: Drawable, x: int, y: int, text: str,
                  fg: Color) -> Rect:
        """Draw one line of text: a run of per-glyph stipples.

        A run that is wholly visible is rasterised with one mask blit
        and handed to the driver as one ``glyph_run``; clipped text is
        drawn and reported glyph piece by glyph piece.

        Returns the bounding rect of the drawn text (pre-clipping).
        """
        self._check(drawable)
        bounds = Rect(x, y, max(len(text) * ADVANCE - 1, 1), GLYPH_HEIGHT)
        rects = [Rect(x + i * ADVANCE, y, GLYPH_WIDTH, GLYPH_HEIGHT)
                 for i in range(len(text))]
        masks = [glyph_bitmap(ch) for ch in text]
        fb = drawable.fb
        if text and self._clip is None and fb.bounds.contains(bounds):
            fb.stipple_rect(bounds, render_text_mask(text), fg, None)
            # The blit also crossed the blank columns between glyphs,
            # which are no glyph's pixels.
            fb.pixels_drawn -= (len(text) - 1) * GLYPH_HEIGHT \
                * (ADVANCE - GLYPH_WIDTH)
            self.driver.glyph_run(drawable, rects, masks, fg)
        else:
            for glyph_rect, mask in zip(rects, masks):
                for piece in self._clip_pieces(glyph_rect):
                    piece_mask = crop_mask(mask, glyph_rect, piece)
                    drawn = fb.stipple_rect(piece, piece_mask, fg, None)
                    if drawn:
                        local = crop_mask(piece_mask, piece, drawn)
                        self.driver.bitmap_fill(drawable, drawn, local, fg,
                                                None)
        self._notify("draw_text", drawable, bounds, text)
        return bounds

    def draw_text_aa(self, drawable: Drawable, x: int, y: int, text: str,
                     fg: Color) -> Rect:
        """Draw anti-aliased text: per-glyph alpha blends (RENDER-style).

        Each glyph becomes an RGBA block whose alpha carries the
        supersampled coverage, composited with Porter-Duff 'over' —
        the operation THINC's alpha-capable protocol forwards as a
        transparent COMPOSITE command.
        """
        self._check(drawable)
        bounds = Rect(x, y, max(len(text) * ADVANCE - 1, 1), GLYPH_HEIGHT)
        r, g, b = fg[0], fg[1], fg[2]
        for i, ch in enumerate(text):
            coverage = glyph_coverage(ch)
            if not coverage.any():
                continue
            glyph_rect = Rect(x + i * ADVANCE, y, GLYPH_WIDTH, GLYPH_HEIGHT)
            rgba = np.empty(coverage.shape + (4,), dtype=np.uint8)
            rgba[..., 0] = r
            rgba[..., 1] = g
            rgba[..., 2] = b
            rgba[..., 3] = np.rint(coverage * fg[3]).astype(np.uint8)
            for piece in self._clip_pieces(glyph_rect):
                sub = rgba[piece.y - glyph_rect.y : piece.y2 - glyph_rect.y,
                           piece.x - glyph_rect.x : piece.x2 - glyph_rect.x]
                drawn = drawable.fb.composite(piece, sub)
                if drawn:
                    blended = sub[
                        drawn.y - piece.y : drawn.y2 - piece.y,
                        drawn.x - piece.x : drawn.x2 - piece.x]
                    self.driver.composite(drawable, drawn, blended, "over")
        self._notify("draw_text_aa", drawable, bounds, text)
        return bounds

    def put_image(self, drawable: Drawable, rect: Rect,
                  pixels: np.ndarray) -> Rect:
        """Store client-supplied pixels; rasterised in scan-line chunks."""
        self._check(drawable)
        pixels = np.asarray(pixels, dtype=np.uint8)
        if pixels.shape[:2] != (rect.height, rect.width):
            raise ValueError(
                f"image {pixels.shape} does not match {rect!r}"
            )
        if pixels.shape[2] == 3:  # accept RGB, promote to opaque RGBA
            alpha = np.full(pixels.shape[:2] + (1,), 255, dtype=np.uint8)
            pixels = np.concatenate([pixels, alpha], axis=2)
        total = Rect(0, 0, 0, 0)
        for y0 in range(0, rect.height, self.image_chunk_rows):
            rows = min(self.image_chunk_rows, rect.height - y0)
            chunk_rect = Rect(rect.x, rect.y + y0, rect.width, rows)
            chunk = pixels[y0 : y0 + rows]
            for piece in self._clip_pieces(chunk_rect):
                sub_in = chunk[
                    piece.y - chunk_rect.y : piece.y2 - chunk_rect.y,
                    piece.x - chunk_rect.x : piece.x2 - chunk_rect.x,
                ]
                drawn = drawable.fb.put_pixels(piece, sub_in)
                if drawn:
                    sub = sub_in[
                        drawn.y - piece.y : drawn.y2 - piece.y,
                        drawn.x - piece.x : drawn.x2 - piece.x,
                    ]
                    self.driver.put_image(drawable, drawn, sub)
                    total = total.union_bounds(drawn)
        self._notify("put_image", drawable, total, rect.area)
        return total

    def composite(self, drawable: Drawable, rect: Rect, pixels: np.ndarray,
                  operator: str = "over") -> Rect:
        """Porter–Duff blend (anti-aliased text, translucency)."""
        self._check(drawable)
        drawn = drawable.fb.composite(rect, pixels)
        if drawn:
            sub = np.asarray(pixels, dtype=np.uint8)[
                drawn.y - rect.y : drawn.y2 - rect.y,
                drawn.x - rect.x : drawn.x2 - rect.x,
            ]
            self.driver.composite(drawable, drawn, sub, operator)
        self._notify("composite", drawable, drawn, operator)
        return drawn

    def copy_area(self, src: Drawable, dst: Drawable, src_rect: Rect,
                  dst_x: int, dst_y: int) -> Rect:
        """Blit between drawables: scrolling, window moves, offscreen flips."""
        self._check(src)
        self._check(dst)
        src_clipped = src_rect.intersect(src.bounds)
        if not src_clipped:
            return src_clipped
        dx = dst_x + (src_clipped.x - src_rect.x)
        dy = dst_y + (src_clipped.y - src_rect.y)
        if src is dst:
            drawn = dst.fb.copy_area(src_clipped, dx, dy)
        else:
            block = src.fb.read_pixels(src_clipped)
            dst_rect = Rect(dx, dy, src_clipped.width, src_clipped.height)
            drawn = dst.fb.put_pixels(dst_rect, block)
        if drawn:
            # Pass the source rect aligned to the destination that survived.
            src_final = Rect(
                src_clipped.x + (drawn.x - dx),
                src_clipped.y + (drawn.y - dy),
                drawn.width,
                drawn.height,
            )
            self.driver.copy_area(src, dst, src_final, drawn.x, drawn.y)
        self._notify("copy_area", dst, drawn, (src.id, src_rect))
        return drawn

    def draw_line(self, drawable: Drawable, x0: int, y0: int,
                  x1: int, y1: int, color: Color, width: int = 1) -> Rect:
        """Draw a line; decomposes into solid spans like XAA does.

        Returns the bounding rect of the drawn (pre-clip) segment.
        """
        self._check(drawable)
        for span in line_spans(x0, y0, x1, y1, width):
            for piece in self._clip_pieces(span):
                drawn = drawable.fb.fill_rect(piece, color)
                if drawn:
                    self.driver.solid_fill(drawable, drawn, color)
        bounds = Rect.from_corners(min(x0, x1), min(y0, y1),
                                   max(x0, x1) + 1, max(y0, y1) + width)
        self._notify("draw_line", drawable, bounds, color)
        return bounds

    def draw_polyline(self, drawable: Drawable, points, color: Color,
                      width: int = 1) -> Rect:
        """Draw connected segments (graph curves, freehand strokes)."""
        self._check(drawable)
        bounds = Rect(0, 0, 0, 0)
        for span in polyline_spans(list(points), width):
            for piece in self._clip_pieces(span):
                drawn = drawable.fb.fill_rect(piece, color)
                if drawn:
                    self.driver.solid_fill(drawable, drawn, color)
            bounds = bounds.union_bounds(span)
        self._notify("draw_polyline", drawable, bounds, color)
        return bounds

    def draw_rect_outline(self, drawable: Drawable, rect: Rect,
                          color: Color, width: int = 1) -> Rect:
        """Draw a rectangle outline (window borders, focus rings)."""
        self._check(drawable)
        for span in rect_outline_spans(rect, width):
            for piece in self._clip_pieces(span):
                drawn = drawable.fb.fill_rect(piece, color)
                if drawn:
                    self.driver.solid_fill(drawable, drawn, color)
        self._notify("draw_rect_outline", drawable, rect, color)
        return rect

    # -- XVideo extension ---------------------------------------------------

    def video_create_stream(self, pixel_format: str, src_width: int,
                            src_height: int, dst_rect: Rect
                            ) -> VideoStreamInfo:
        if pixel_format not in yuv.FORMATS:
            raise ValueError(f"unsupported pixel format {pixel_format!r}")
        if src_width <= 0 or src_height <= 0:
            raise ValueError("video source dimensions must be positive")
        stream = VideoStreamInfo(
            stream_id=next(self._stream_ids),
            pixel_format=pixel_format,
            src_width=src_width,
            src_height=src_height,
            dst_rect=dst_rect,
        )
        self.video_streams[stream.stream_id] = stream
        self.driver.video_setup(stream)
        self._notify("video_setup", self.screen, dst_rect, stream.stream_id)
        return stream

    def video_put_frame(self, stream: VideoStreamInfo,
                        yuv_bytes: bytes) -> Rect:
        """Present one YUV frame; the screen holds it as an overlay."""
        if stream.stream_id not in self.video_streams:
            raise ValueError("video stream is not active")
        dst = stream.dst_rect
        drawn = self.screen.fb.present_video(
            dst, stream.pixel_format, yuv_bytes, stream.src_width,
            stream.src_height)
        stream.frames_put += 1
        self.driver.video_put(stream, yuv_bytes, dst)
        self._notify("video_put", self.screen, drawn, stream.stream_id)
        return drawn

    def video_move_stream(self, stream: VideoStreamInfo,
                          dst_rect: Rect) -> None:
        if stream.stream_id not in self.video_streams:
            raise ValueError("video stream is not active")
        stream.dst_rect = dst_rect
        self.driver.video_move(stream, dst_rect)
        self._notify("video_move", self.screen, dst_rect, stream.stream_id)

    def video_destroy_stream(self, stream: VideoStreamInfo) -> None:
        if self.video_streams.pop(stream.stream_id, None) is None:
            raise ValueError("video stream is not active")
        self.driver.video_teardown(stream)
        self._notify("video_teardown", self.screen, stream.dst_rect,
                     stream.stream_id)

    # -- cursor -----------------------------------------------------------------

    def set_cursor(self, pixels: np.ndarray,
                   hotspot: Tuple[int, int] = (0, 0)) -> None:
        """Change the pointer shape (applications set per-window cursors).

        The cursor is a hardware overlay: it never touches the
        framebuffer, so the driver only learns the new shape.
        """
        pixels = np.ascontiguousarray(pixels, dtype=np.uint8)
        if pixels.ndim != 3 or pixels.shape[2] != 4:
            raise ValueError("cursor image must be HxWx4 RGBA")
        if pixels.shape[0] > 64 or pixels.shape[1] > 64:
            raise ValueError("cursor images are limited to 64x64")
        hx, hy = hotspot
        if not (0 <= hx < pixels.shape[1] and 0 <= hy < pixels.shape[0]):
            raise ValueError("hotspot must lie inside the cursor image")
        self.cursor_image = pixels
        self.cursor_hotspot = (int(hx), int(hy))
        self.driver.cursor_set(pixels, self.cursor_hotspot)
        self.op_counts["cursor"] = self.op_counts.get("cursor", 0) + 1

    # -- input ----------------------------------------------------------------

    def inject_input(self, event: InputEvent) -> None:
        """User input arriving from the client; forwarded to the driver."""
        self.driver.input_event(event)
        self.op_counts["input"] = self.op_counts.get("input", 0) + 1

