"""A simple stacking window manager over the window server.

The paper's workloads run full-screen applications, but the motivation
sections lean on ordinary desktop interaction — overlapping windows,
opaque window movement (which THINC's COPY accelerates), exposes that
force redraws.  This window manager provides that desktop substrate:

* each window owns an offscreen *backing pixmap* its application draws
  into (double buffering, Section 4.1's target pattern);
* the manager composites the visible parts of every window onscreen in
  stacking order, using region algebra to clip lower windows;
* moving a window blits the visible area with ``copy_area`` (COPY on
  the wire) and repairs newly exposed areas from backing stores.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..region import Rect, Region
from .pixmap import Drawable
from .xserver import WindowServer

__all__ = ["Window", "WindowManager", "TITLE_BAR_HEIGHT"]

Color = Tuple[int, int, int, int]

TITLE_BAR_HEIGHT = 14

_TITLE_ACTIVE = (52, 84, 160, 255)
_TITLE_INACTIVE = (120, 120, 136, 255)
_FRAME_COLOR = (80, 80, 92, 255)


@dataclass
class Window:
    """One managed window: frame geometry plus a backing pixmap."""

    wid: int
    title: str
    frame: Rect  # onscreen geometry including title bar
    backing: Drawable  # application-drawn content (frame-local)

    @property
    def content_rect(self) -> Rect:
        """The application content area, in screen coordinates."""
        return Rect(self.frame.x + 1, self.frame.y + TITLE_BAR_HEIGHT,
                    self.frame.width - 2,
                    self.frame.height - TITLE_BAR_HEIGHT - 1)


class WindowManager:
    """Stacking window management with backing-store repaints."""

    desktop_color: Color = (58, 110, 110, 255)

    def __init__(self, ws: WindowServer):
        self.ws = ws
        self._ids = itertools.count(1)
        # Bottom-to-top stacking order.
        self._stack: List[Window] = []
        self.paint_desktop(ws.screen.bounds)

    # -- queries --------------------------------------------------------------

    @property
    def windows(self) -> List[Window]:
        return list(self._stack)

    @property
    def focused(self) -> Optional[Window]:
        return self._stack[-1] if self._stack else None

    def visible_region(self, window: Window) -> Region:
        """The part of *window* not hidden by higher windows."""
        region = Region.from_rect(
            window.frame.intersect(self.ws.screen.bounds))
        above = False
        for other in self._stack:
            if other is window:
                above = True
                continue
            if above:
                region.subtract_rect(other.frame)
        return region

    # -- desktop ---------------------------------------------------------------

    def paint_desktop(self, rect: Rect) -> None:
        self.ws.fill_rect(self.ws.screen, rect, self.desktop_color)

    # -- window lifecycle --------------------------------------------------------

    def create_window(self, title: str, rect: Rect,
                      content_color: Color = (240, 240, 240, 255)
                      ) -> Window:
        """Map a new window at *rect* (content area sized to fit)."""
        if rect.width < 24 or rect.height < TITLE_BAR_HEIGHT + 8:
            raise ValueError("window too small to manage")
        backing = self.ws.create_pixmap(rect.width - 2,
                                        rect.height - TITLE_BAR_HEIGHT - 1,
                                        label=f"win-{title}")
        self.ws.fill_rect(backing, backing.bounds, content_color)
        window = Window(next(self._ids), title, rect, backing)
        previous_top = self._stack[-1] if self._stack else None
        self._stack.append(window)
        self._draw_frame(window)
        self._repair(self.visible_region(window), only=window)
        if previous_top is not None:
            # The old top window loses focus decoration.
            self._draw_frame(previous_top)
        return window

    # -- stacking and movement ---------------------------------------------------

    def raise_window(self, window: Window) -> None:
        """Bring to front and repaint the newly uncovered parts."""
        if window not in self._stack:
            raise ValueError("window is not managed")
        was_hidden = Region.from_rect(window.frame).subtract(
            self.visible_region(window))
        previous_top = self._stack[-1]
        self._stack.remove(window)
        self._stack.append(window)
        self._repair(was_hidden, only=window)
        if previous_top is not window:
            self._draw_frame(previous_top)
            self._draw_frame(window)

    def move_window(self, window: Window, dx: int, dy: int) -> None:
        """Opaque window move: COPY the visible part, repair the rest."""
        if window not in self._stack:
            raise ValueError("window is not managed")
        old_frame = window.frame
        visible_before = self.visible_region(window)
        window.frame = old_frame.translate(dx, dy)
        # Blit what was visible and stays on screen (COPY on the wire).
        for rect in visible_before:
            dest = rect.translate(dx, dy).intersect(self.ws.screen.bounds)
            if dest:
                src = dest.translate(-dx, -dy)
                self.ws.copy_area(self.ws.screen, self.ws.screen, src,
                                  dest.x, dest.y)
        # Parts of the window newly visible (were covered or offscreen).
        now_visible = self.visible_region(window)
        moved_blit = Region(
            [r.translate(dx, dy).intersect(self.ws.screen.bounds)
             for r in visible_before])
        self._repair(now_visible.subtract(moved_blit), only=window)
        # The area the window vacated shows what was underneath.
        vacated = visible_before.subtract(
            Region.from_rect(window.frame))
        self._expose(vacated)

    # -- drawing into windows --------------------------------------------------------

    def draw_in_window(self, window: Window,
                       draw: Callable[[WindowServer, Drawable], None]
                       ) -> None:
        """Run an application drawing function against the backing
        pixmap, then flush the visible result onscreen."""
        draw(self.ws, window.backing)
        content = window.content_rect
        visible = self.visible_region(window).intersect_rect(content)
        for rect in visible:
            src = Rect(rect.x - content.x, rect.y - content.y,
                       rect.width, rect.height)
            self.ws.copy_area(window.backing, self.ws.screen, src,
                              rect.x, rect.y)

    # -- internals ------------------------------------------------------------------

    def _draw_frame(self, window: Window) -> None:
        """Title bar + border, clipped to the window's visible region."""
        visible = self.visible_region(window)
        frame = window.frame
        focused = self._stack and self._stack[-1] is window
        title_color = _TITLE_ACTIVE if focused else _TITLE_INACTIVE
        bar = Rect(frame.x, frame.y, frame.width, TITLE_BAR_HEIGHT)
        for rect in visible.intersect_rect(bar):
            self.ws.fill_rect(self.ws.screen, rect, title_color)
        # Title text, clipped to the visible part of its strip so a
        # repaint produces exactly what an opaque move would have
        # blitted.
        text_rect = Rect(frame.x + 4, frame.y + 3,
                         min(len(window.title) * 6, frame.width - 8), 7)
        text_visible = visible.intersect_rect(text_rect)
        if text_visible:
            with self.ws.clip(text_visible):
                self.ws.draw_text(self.ws.screen, text_rect.x,
                                  text_rect.y, window.title,
                                  (255, 255, 255, 255))
        for edge in (
            Rect(frame.x, frame.y2 - 1, frame.width, 1),
            Rect(frame.x, frame.y, 1, frame.height),
            Rect(frame.x2 - 1, frame.y, 1, frame.height),
        ):
            for rect in visible.intersect_rect(edge):
                self.ws.fill_rect(self.ws.screen, rect, _FRAME_COLOR)

    def _repair(self, region: Region, only: Window) -> None:
        """Repaint parts of one window from its backing store."""
        if region.is_empty:
            return
        content = only.content_rect
        for rect in region:
            body = rect.intersect(content)
            if body:
                src = Rect(body.x - content.x, body.y - content.y,
                           body.width, body.height)
                self.ws.copy_area(only.backing, self.ws.screen, src,
                                  body.x, body.y)
        self._draw_frame(only)

    def _expose(self, region: Region) -> None:
        """Repaint an exposed area: desktop, then windows bottom-up."""
        for rect in region:
            self.paint_desktop(rect)
        for window in self._stack:
            overlap = region.intersect_rect(window.frame)
            visible = self.visible_region(window)
            self._repair(overlap.intersect(visible), only=window)
