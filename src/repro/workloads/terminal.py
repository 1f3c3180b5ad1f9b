"""A scrolling terminal workload.

The paper motivates the COPY command with "accelerating scrolling and
opaque window movement without having to resend screen data".  This
workload is the canonical producer of that pattern: a terminal emulator
appending output lines — each new line scrolls the text region up by
one line height (a self-overlapping ``copy_area``) and draws the new
text at the bottom.

On THINC the scroll crosses the wire as one 13-byte COPY plus the new
line's glyphs; on a scraper the whole text region is damaged and
re-encoded every line.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..display.font import GLYPH_HEIGHT
from ..display.xserver import WindowServer
from ..net.clock import EventLoop
from ..region import Rect

__all__ = ["TerminalApp"]

LINE_HEIGHT = GLYPH_HEIGHT + 3


class TerminalApp:
    """A terminal emulator producing output at a given line rate."""

    bg = (12, 12, 16, 255)
    fg = (140, 230, 140, 255)

    def __init__(self, ws: WindowServer, loop: EventLoop,
                 rect: Optional[Rect] = None):
        self.ws = ws
        self.loop = loop
        self.rect = rect or ws.screen.bounds
        if self.rect.height < 2 * LINE_HEIGHT:
            raise ValueError("terminal area too short for scrolling")
        self.rows = self.rect.height // LINE_HEIGHT
        self.lines_written = 0
        self._cursor_row = 0
        ws.fill_rect(ws.screen, self.rect, self.bg)

    def write_line(self, text: str) -> None:
        """Append one output line, scrolling when the screen is full."""
        if self._cursor_row >= self.rows:
            self._scroll_up()
            self._cursor_row = self.rows - 1
        y = self.rect.y + self._cursor_row * LINE_HEIGHT
        self.ws.draw_text(self.ws.screen, self.rect.x + 4, y + 2,
                          text, self.fg)
        self._cursor_row += 1
        self.lines_written += 1

    def _scroll_up(self) -> None:
        """Scroll the text region up one line (the COPY producer)."""
        src = Rect(self.rect.x, self.rect.y + LINE_HEIGHT,
                   self.rect.width, (self.rows - 1) * LINE_HEIGHT)
        self.ws.copy_area(self.ws.screen, self.ws.screen, src,
                          self.rect.x, self.rect.y)
        bottom = Rect(self.rect.x,
                      self.rect.y + (self.rows - 1) * LINE_HEIGHT,
                      self.rect.width,
                      self.rect.height - (self.rows - 1) * LINE_HEIGHT)
        self.ws.fill_rect(self.ws.screen, bottom, self.bg)

    def run_output(self, lines: List[str], interval: float,
                   on_done: Optional[Callable[[], None]] = None) -> None:
        """Emit *lines* one per *interval* on the event loop."""

        def emit(i: int) -> None:
            if i >= len(lines):
                if on_done is not None:
                    on_done()
                return
            self.write_line(lines[i])
            self.loop.schedule(interval, lambda: emit(i + 1))

        self.loop.schedule(0.0, lambda: emit(0))
