#!/usr/bin/env python
"""Inspect the translation layer: what does each drawing op become?

Drives the window server through the operations a desktop generates —
text, fills, tiles, images, scrolls, double-buffered window flips — and
prints, for each, the protocol commands THINC's virtual driver emitted
and their wire cost.  This makes the paper's Section 4 visible:
one-to-one mappings, a line of glyph stipples leaving the driver as
one BITMAP, scan-line image chunks leaving it as one RAW per band,
offscreen drawing shipping as replayed *commands* rather than pixels.

Run:  python examples/translation_inspector.py
"""

import numpy as np

from repro.core.translation import THINCDriver
from repro.display import WindowServer, solid_pixels
from repro.region import Rect

BLACK = (10, 10, 10, 255)
WHITE = (255, 255, 255, 255)
BLUE = (40, 80, 200, 255)


class Tap:
    """An UpdateSink that aggregates like the per-client buffer does.

    The driver translates each driver-level call one-to-one; the
    *delivery* layer's command queue then merges adjacent commands
    (Section 4's aggregation principle).  The tap counts both stages.
    """

    def __init__(self):
        from repro.core import CommandQueue

        self.queue = CommandQueue()
        self.raw_count = 0

    def submit(self, command):
        self.raw_count += 1
        self.queue.add(command)

    def video_setup(self, stream):
        pass

    def video_move(self, stream):
        pass

    def video_teardown(self, stream):
        pass

    def note_input(self, event):
        pass

    def take(self):
        out = self.queue.drain()
        count, self.raw_count = self.raw_count, 0
        return count, out


def describe(label, taken):
    raw_count, commands = taken
    print(f"\n{label}")
    if not commands:
        print("   (nothing sent - drawing stayed offscreen)")
        return
    print(f"   driver emitted {raw_count} command(s); "
          f"buffered as {len(commands)}:")
    for cmd in commands:
        print(f"   -> {cmd.kind.upper():9s} {cmd.dest.width:4d}x"
              f"{cmd.dest.height:<4d} at ({cmd.dest.x},{cmd.dest.y})"
              f"  {cmd.wire_size():7d} bytes on the wire")


def main() -> None:
    tap = Tap()
    driver = THINCDriver(tap)
    ws = WindowServer(640, 480, driver=driver)

    ws.fill_rect(ws.screen, ws.screen.bounds, WHITE)
    describe("fill_rect(whole screen)  [one-to-one: SFILL]", tap.take())

    ws.draw_text(ws.screen, 20, 20, "forty-two glyphs of text merge "
                 "into one...", BLACK)
    describe("draw_text(42 chars)  [one glyph run: the driver ships one "
             "BITMAP]",
             tap.take())

    rng = np.random.default_rng(7)
    ws.put_image(ws.screen, Rect(20, 60, 200, 120),
                 rng.integers(0, 256, (120, 200, 4), dtype=np.uint8))
    describe("put_image(200x120 photo)  [15 scan-line chunks: one RAW "
             "per 64 KiB band, merged in the buffer]", tap.take())

    tile = solid_pixels(8, 8, (230, 230, 240, 255))
    tile[::4, ::4] = (180, 180, 200, 255)
    ws.fill_tiled(ws.screen, Rect(20, 200, 300, 80), tile)
    describe("fill_tiled(300x80)  [tile travels once: PFILL]", tap.take())

    ws.copy_area(ws.screen, ws.screen, Rect(20, 60, 200, 120), 340, 60)
    describe("copy_area(scroll/move)  [no pixels resent: COPY]", tap.take())

    # The paper's key optimisation: double-buffered window rendering.
    window = ws.create_pixmap(240, 160)
    ws.fill_rect(window, window.bounds, BLUE)
    ws.draw_text(window, 10, 10, "composed offscreen", WHITE)
    describe("offscreen composition (pixmap fill + text)", tap.take())
    ws.copy_area(window, ws.screen, window.bounds, 40, 300)
    describe("copy offscreen->onscreen  [queued commands replayed, "
             "no RAW fallback]", tap.take())

    print(f"\ndriver stats: {driver.stats}")


if __name__ == "__main__":
    main()
