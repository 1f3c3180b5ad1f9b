"""The video device driver interface.

This is the boundary the paper's whole design revolves around: a
well-defined, low-level, device-dependent layer between the window
server and the hardware.  The simulated window server decomposes every
application request into calls on this interface, passing along the full
semantic information a real driver sees (operation kind, geometry,
colours, tiles, stipples, source drawables).  Text reaches the driver as
a whole glyph run (:meth:`DisplayDriver.glyph_run`); a driver that does
not override that hook sees the run as one ``bitmap_fill`` per glyph.

A hardware driver would program a GPU here.  THINC instead implements
this interface with a *virtual* driver that translates each call into
protocol commands (``repro.core.translation``).  The baseline systems
implement it at lower fidelity — e.g. VNC's "driver" merely accumulates
damage rectangles, discarding the semantics, exactly as screen scraping
does.

Drivers never render; the window server performs the software rendering
into the drawable's framebuffer *before* invoking the hook, so the hook
observes an operation that has already (conceptually) hit video memory.
All rectangles passed to hooks are pre-clipped to the drawable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..region import Rect
from .pixmap import Drawable

__all__ = ["DisplayDriver", "NullDriver", "RecordingDriver", "InputEvent",
           "VideoStreamInfo"]

Color = Tuple[int, int, int, int]


@dataclass(frozen=True)
class InputEvent:
    """A user input event forwarded from client to server.

    THINC's delivery scheduler uses the location of the most recent
    events to mark nearby updates as real-time (Section 5).
    """

    kind: str  # "mouse-move" | "mouse-click" | "key"
    x: int
    y: int
    time: float
    detail: str = ""


@dataclass
class VideoStreamInfo:
    """Server-side state for one XVideo stream (Section 4.2)."""

    stream_id: int
    pixel_format: str  # e.g. "YV12"
    src_width: int
    src_height: int
    dst_rect: Rect
    frames_put: int = 0


class DisplayDriver:
    """Abstract driver hooks mirroring an XAA/KAA-style interface.

    Subclasses override the hooks they care about; every hook has a
    no-op default so partial drivers (and test doubles) stay small.

    ``screen_drawable`` is the screen a driver owns, if it owns one: a
    :class:`~repro.display.xserver.WindowServer` built over the driver
    then draws on it instead of allocating its own.
    """

    screen_drawable = None

    # -- 2D acceleration hooks ------------------------------------------

    def solid_fill(self, drawable: Drawable, rect: Rect, color: Color) -> None:
        """A solid colour fill hit *rect* of *drawable*."""

    def pattern_fill(self, drawable: Drawable, rect: Rect,
                     tile: np.ndarray, origin: Tuple[int, int]) -> None:
        """A tile was replicated over *rect* (anchored at *origin*)."""

    def bitmap_fill(self, drawable: Drawable, rect: Rect, mask: np.ndarray,
                    fg: Color, bg: Optional[Color]) -> None:
        """A 1-bit stipple was expanded over *rect* with fg/bg colours.

        ``bg is None`` means a transparent stipple: untouched zero bits.
        Glyph text arrives through this hook unless :meth:`glyph_run`
        is overridden.
        """

    def glyph_run(self, drawable: Drawable, rects: Sequence[Rect],
                  masks: Sequence[np.ndarray], fg: Color) -> None:
        """A run of glyphs was drawn on one baseline (XAA's PolyGlyphBlt).

        ``rects[i]`` is the cell of glyph *i* and ``masks[i]`` its
        transparent 1-bit stipple; the cells have one height and one
        ``y``, run left to right and lie at most two pixels apart (what
        ``BitmapCommand.try_merge`` chains).  The default decomposes the
        run into the per-glyph ``bitmap_fill`` calls it stands for.
        """
        for rect, mask in zip(rects, masks):
            self.bitmap_fill(drawable, rect, mask, fg, None)

    def put_image(self, drawable: Drawable, rect: Rect,
                  pixels: np.ndarray) -> None:
        """Raw client-supplied pixels were stored into *rect*."""

    def composite(self, drawable: Drawable, rect: Rect,
                  pixels: np.ndarray, operator: str) -> None:
        """An RGBA block was blended onto *rect* (Porter–Duff *operator*)."""

    def copy_area(self, src: Drawable, dst: Drawable, src_rect: Rect,
                  dst_x: int, dst_y: int) -> None:
        """Pixels were blitted between drawables (either may be offscreen)."""

    def destroy_drawable(self, drawable: Drawable) -> None:
        """An offscreen pixmap was freed; associated state can be dropped."""

    # -- XVideo hooks -----------------------------------------------------

    def video_setup(self, stream: VideoStreamInfo) -> None:
        """An application opened an XVideo port / created a stream."""

    def video_put(self, stream: VideoStreamInfo, yuv_planes: bytes,
                  dst_rect: Rect) -> None:
        """One video frame of YUV data was presented to *dst_rect*."""

    def video_move(self, stream: VideoStreamInfo, dst_rect: Rect) -> None:
        """The stream's output window moved or resized."""

    def video_teardown(self, stream: VideoStreamInfo) -> None:
        """The stream was closed."""

    # -- cursor -----------------------------------------------------------

    def cursor_set(self, pixels: np.ndarray,
                   hotspot: Tuple[int, int]) -> None:
        """The pointer shape changed (HxWx4 RGBA image + hotspot)."""

    # -- input ------------------------------------------------------------

    def input_event(self, event: InputEvent) -> None:
        """A user input event reached the server (for real-time regions)."""


class NullDriver(DisplayDriver):
    """A driver that ignores everything — the 'local PC' case."""


@dataclass
class _Call:
    name: str
    drawable_id: Optional[int]
    rect: Optional[Rect]


class RecordingDriver(DisplayDriver):
    """Records the hook sequence; used by unit tests and diagnostics."""

    def __init__(self) -> None:
        self.calls: List[_Call] = []

    def _rec(self, name: str, drawable: Optional[Drawable],
             rect: Optional[Rect]) -> None:
        self.calls.append(
            _Call(name, drawable.id if drawable else None, rect)
        )

    def solid_fill(self, drawable, rect, color):
        self._rec("solid_fill", drawable, rect)

    def pattern_fill(self, drawable, rect, tile, origin):
        self._rec("pattern_fill", drawable, rect)

    def bitmap_fill(self, drawable, rect, mask, fg, bg):
        self._rec("bitmap_fill", drawable, rect)

    def put_image(self, drawable, rect, pixels):
        self._rec("put_image", drawable, rect)

    def composite(self, drawable, rect, pixels, operator):
        self._rec("composite", drawable, rect)

    def copy_area(self, src, dst, src_rect, dst_x, dst_y):
        self._rec("copy_area", dst, Rect(dst_x, dst_y,
                                         src_rect.width, src_rect.height))

    def destroy_drawable(self, drawable):
        self._rec("destroy_drawable", drawable, None)

    def video_setup(self, stream):
        self.calls.append(_Call("video_setup", None, stream.dst_rect))

    def video_put(self, stream, yuv_planes, dst_rect):
        self.calls.append(_Call("video_put", None, dst_rect))

    def video_move(self, stream, dst_rect):
        self.calls.append(_Call("video_move", None, dst_rect))

    def video_teardown(self, stream):
        self.calls.append(_Call("video_teardown", None, None))

    def cursor_set(self, pixels, hotspot):
        self.calls.append(_Call("cursor_set", None,
                                Rect(hotspot[0], hotspot[1],
                                     pixels.shape[1], pixels.shape[0])))

    def input_event(self, event):
        self.calls.append(_Call("input_event", None,
                                Rect(event.x, event.y, 1, 1)))

    def names(self) -> List[str]:
        return [c.name for c in self.calls]
