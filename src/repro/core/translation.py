"""The THINC translation layer: a virtual video device driver.

This is the paper's central artifact (Sections 3–4).  Instead of
programming display hardware, the driver translates each driver-level
operation — with its semantic information still intact — into protocol
commands, applying the three design principles of Section 4:

1. translate *as commands occur*, so the mapping is usually one-to-one
   (a solid fill becomes an SFILL, a stipple a BITMAP, ...);
2. decouple translation from transmission, aggregating small updates
   (per-glyph stipples, scan-line image chunks) before they ship; and
3. preserve command semantics for the whole command lifetime, via the
   command queues that track every offscreen region (Section 4.1).

Offscreen handling: drawing to a pixmap adds commands to that pixmap's
queue instead of the network.  Copies between offscreen regions copy
(never move — a region can source many copies) the translated commands
into the destination queue, relocated.  A copy onscreen replays the
queue's commands to the client, which is what lets THINC ship a
double-buffered browser page as fills, tiles and glyphs rather than as
a giant compressed pixel dump.  Where replay cannot be faithful (pixels
never described by queued commands, or transparent blends over such
pixels) the layer falls back to RAW data read from the server-side
framebuffer — precisely the last-resort behaviour the protocol assigns
to RAW.
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..codec import Encoding
from ..display.driver import DisplayDriver, InputEvent, VideoStreamInfo
from ..display.pixmap import Drawable
from ..protocol.commands import (BitmapCommand, Command, CompositeCommand,
                                 CopyCommand, PFillCommand, RawCommand,
                                 SFillCommand, VideoFrameCommand)
from ..region import Rect
from .command_queue import CommandQueue

__all__ = ["THINCDriver", "UpdateSink"]

Color = Tuple[int, int, int, int]


class UpdateSink(Protocol):
    """Where translated updates go — implemented by the THINC server."""

    def submit(self, command: Command) -> None: ...

    def cursor_set(self, pixels, hotspot) -> None: ...

    def video_setup(self, stream: VideoStreamInfo) -> None: ...

    def video_move(self, stream: VideoStreamInfo) -> None: ...

    def video_teardown(self, stream: VideoStreamInfo) -> None: ...

    def note_input(self, event: InputEvent) -> None: ...


class THINCDriver(DisplayDriver):
    """Virtual display driver translating driver ops into THINC commands.

    ``offscreen_awareness`` can be disabled for the ablation study: the
    driver then ignores offscreen drawing entirely and ships raw pixels
    whenever offscreen content is copied onscreen — the behaviour of
    thin clients without Section 4.1's optimisation.
    """

    def __init__(self, sink: UpdateSink, compress_raw: bool = True,
                 offscreen_awareness: bool = True):
        self.sink = sink
        # The ablation switch picks the encoding every RAW leaves with.
        self.raw_encoding = Encoding.PNG if compress_raw else Encoding.NONE
        self.offscreen_awareness = offscreen_awareness
        self._offscreen: Dict[int, CommandQueue] = {}
        self.stats = {
            "driver_ops": 0,
            "onscreen_commands": 0,
            "offscreen_commands": 0,
            "replayed_commands": 0,
            "raw_fallbacks": 0,
        }

    # -- helpers ---------------------------------------------------------

    def _queue_for(self, drawable: Drawable) -> CommandQueue:
        queue = self._offscreen.get(drawable.id)
        if queue is None:
            queue = CommandQueue()
            self._offscreen[drawable.id] = queue
        return queue

    def offscreen_queue(self, drawable: Drawable) -> Optional[CommandQueue]:
        """Expose a pixmap's queue (diagnostics and tests)."""
        return self._offscreen.get(drawable.id)

    def _emit(self, drawable: Drawable, command: Command) -> None:
        """Route a translated command onscreen or to an offscreen queue."""
        if drawable.onscreen:
            self.stats["onscreen_commands"] += 1
            self.sink.submit(command)
        elif self.offscreen_awareness:
            self.stats["offscreen_commands"] += 1
            self._queue_for(drawable).add(command)
        # else: offscreen drawing is ignored (ablation), and copies
        # onscreen will fall back to raw framebuffer reads.

    def _raw_from_fb(self, drawable: Drawable, rect: Rect) -> RawCommand:
        pixels = drawable.fb.read_pixels(rect)
        return RawCommand(rect, pixels, self.raw_encoding)

    # -- 2D hooks: one-to-one translation -----------------------------------

    def solid_fill(self, drawable: Drawable, rect: Rect,
                   color: Color) -> None:
        self.stats["driver_ops"] += 1
        self._emit(drawable, SFillCommand(rect, color))

    def pattern_fill(self, drawable: Drawable, rect: Rect,
                     tile: np.ndarray, origin: Tuple[int, int]) -> None:
        self.stats["driver_ops"] += 1
        self._emit(drawable, PFillCommand(rect, tile, origin))

    def bitmap_fill(self, drawable: Drawable, rect: Rect, mask: np.ndarray,
                    fg: Color, bg: Optional[Color]) -> None:
        self.stats["driver_ops"] += 1
        self._emit(drawable, BitmapCommand(rect, mask, fg, bg))

    def glyph_run(self, drawable: Drawable, rects: Sequence[Rect],
                  masks: Sequence[np.ndarray], fg: Color) -> None:
        """Text: one BITMAP per glyph onscreen, one queue step offscreen.

        Onscreen glyphs must each reach the sink (it prices and
        schedules per command).  A pixmap's queue would merge the run
        glyph by glyph anyway, so it receives the merged stipple once.
        """
        if drawable.onscreen or not self.offscreen_awareness:
            super().glyph_run(drawable, rects, masks, fg)
            return
        first = rects[0]
        run = np.zeros((first.height, rects[-1].x2 - first.x), dtype=bool)
        for rect, mask in zip(rects, masks):
            run[:, rect.x - first.x : rect.x2 - first.x] = mask
        self.stats["driver_ops"] += len(rects)
        self.stats["offscreen_commands"] += len(rects)
        self._queue_for(drawable).add_run(
            BitmapCommand(Rect(first.x, first.y, run.shape[1], first.height),
                          run, fg), rects)

    def put_image(self, drawable: Drawable, rect: Rect,
                  pixels: np.ndarray) -> None:
        self.stats["driver_ops"] += 1
        self._emit(drawable,
                   RawCommand(rect, pixels, self.raw_encoding))

    def composite(self, drawable: Drawable, rect: Rect,
                  pixels: np.ndarray, operator: str) -> None:
        self.stats["driver_ops"] += 1
        if operator == "over":
            self._emit(drawable, CompositeCommand(rect, pixels))
        else:
            # Exotic operators lose their semantics; ship the result.
            self._emit(drawable, self._raw_from_fb(drawable, rect))

    # -- the four copy cases -----------------------------------------------

    def copy_area(self, src: Drawable, dst: Drawable, src_rect: Rect,
                  dst_x: int, dst_y: int) -> None:
        self.stats["driver_ops"] += 1
        if src.onscreen and dst.onscreen:
            # Screen-to-screen: the client has the pixels; just COPY.
            dest = Rect(dst_x, dst_y, src_rect.width, src_rect.height)
            self.sink.submit(CopyCommand(src_rect.x, src_rect.y, dest))
            self.stats["onscreen_commands"] += 1
        elif src.onscreen and not dst.onscreen:
            # Screen-to-pixmap: snapshot the pixels into the queue.
            if self.offscreen_awareness:
                dest = Rect(dst_x, dst_y, src_rect.width, src_rect.height)
                raw = RawCommand(dest, src.fb.read_pixels(src_rect),
                                 self.raw_encoding)
                self._queue_for(dst).add(raw)
                self.stats["offscreen_commands"] += 1
        elif not src.onscreen and dst.onscreen:
            self._copy_offscreen_out(src, src_rect, dst_x, dst_y,
                                     self.sink.submit)
        else:
            queue = self._queue_for(dst) if self.offscreen_awareness else None
            if queue is not None:
                self._copy_offscreen_out(src, src_rect, dst_x, dst_y,
                                         queue.add, count_as_replay=False)

    def _copy_offscreen_out(self, src: Drawable, src_rect: Rect,
                            dst_x: int, dst_y: int, emit,
                            count_as_replay: bool = True) -> None:
        """Reproduce offscreen content at a new place (Section 4.1)."""
        dx = dst_x - src_rect.x
        dy = dst_y - src_rect.y
        src_rect = src_rect.intersect(src.bounds)
        if src_rect.empty:
            return
        queue = (self._offscreen.get(src.id)
                 if self.offscreen_awareness else None)
        if queue is None:
            # No semantic record: last-resort RAW of the final pixels.
            raw = self._raw_from_fb(src, src_rect).translated(dx, dy)
            self.stats["raw_fallbacks"] += 1
            emit(raw)
            return
        commands = queue.commands_for_copy(src_rect, dx, dy)
        for cmd in commands:
            emit(cmd)
        if count_as_replay:
            self.stats["replayed_commands"] += len(commands)
        for rect in queue.uncovered_region(src_rect):
            self.stats["raw_fallbacks"] += 1
            emit(self._raw_from_fb(src, rect).translated(dx, dy))

    def destroy_drawable(self, drawable: Drawable) -> None:
        self._offscreen.pop(drawable.id, None)

    # -- video and input --------------------------------------------------

    def video_setup(self, stream: VideoStreamInfo) -> None:
        self.sink.video_setup(stream)

    def video_put(self, stream: VideoStreamInfo, yuv_planes: bytes,
                  dst_rect: Rect) -> None:
        self.stats["driver_ops"] += 1
        self.sink.submit(VideoFrameCommand(
            stream.stream_id, dst_rect, stream.src_width,
            stream.src_height, yuv_planes, frame_no=stream.frames_put,
            pixel_format=stream.pixel_format))

    def video_move(self, stream: VideoStreamInfo, dst_rect: Rect) -> None:
        self.sink.video_move(stream)

    def video_teardown(self, stream: VideoStreamInfo) -> None:
        self.sink.video_teardown(stream)

    def cursor_set(self, pixels: np.ndarray,
                   hotspot: Tuple[int, int]) -> None:
        self.sink.cursor_set(pixels, hotspot)

    def input_event(self, event: InputEvent) -> None:
        self.sink.note_input(event)
