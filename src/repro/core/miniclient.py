"""A minimal THINC client, written from the protocol alone.

The paper demonstrates client simplicity by implementing several
clients (a plain X application, a Java applet, Windows and PDA
clients).  This module is that demonstration for the reproduction: a
complete, independent client in well under a hundred effective lines,
using nothing but the wire parser and a pixel array — no shared code
with :class:`~repro.core.client.THINCClient` beyond the protocol
itself.  The equivalence test drives both clients from one server and
asserts pixel-identical screens.

Its five display operations map exactly onto Table 1's claim that the
protocol mirrors "operations commonly found in client display
hardware": array slice stores, slice copies, broadcast fills.
"""

from __future__ import annotations

import numpy as np

from ..protocol import wire
from ..protocol.commands import (BitmapCommand, CompositeCommand,
                                 CopyCommand, PFillCommand, RawCommand,
                                 SFillCommand, VideoFrameCommand)
from ..protocol.spec import CLIENT_ACCEPTS
from ..video import yuv

__all__ = ["MiniClient"]


class MiniClient:
    """The simplest possible conforming THINC display client."""

    def __init__(self, connection):
        # Even the minimal client enforces the spec's direction
        # contract (THL201): only server-to-client ids parse.
        self.parser = wire.StreamParser(allowed=CLIENT_ACCEPTS)
        self.pixels: np.ndarray = np.zeros((1, 1, 4), dtype=np.uint8)
        connection.down.connect(self.receive)

    def receive(self, chunk: bytes) -> None:
        """Feed network bytes; executes every completed message."""
        for message in self.parser.feed(chunk):
            self.handle(message)

    def handle(self, msg) -> None:
        if isinstance(msg, wire.ScreenInitMessage):
            self.pixels = np.zeros((msg.height, msg.width, 4),
                                   dtype=np.uint8)
            self.pixels[..., 3] = 255
        elif isinstance(msg, RawCommand):
            self._slice(msg.dest)[:] = msg.pixels
        elif isinstance(msg, SFillCommand):
            self._slice(msg.dest)[:] = np.array(msg.color, dtype=np.uint8)
        elif isinstance(msg, CopyCommand):
            block = self._slice(msg.src_rect).copy()
            self._slice(msg.dest)[:] = block
        elif isinstance(msg, PFillCommand):
            d, tile = msg.dest, msg.tile
            ys = (np.arange(d.y, d.y2) - msg.origin[1]) % tile.shape[0]
            xs = (np.arange(d.x, d.x2) - msg.origin[0]) % tile.shape[1]
            self._slice(d)[:] = tile[np.ix_(ys, xs)]
        elif isinstance(msg, BitmapCommand):
            view = self._slice(msg.dest)
            view[msg.mask] = np.array(msg.fg, dtype=np.uint8)
            if msg.bg is not None:
                view[~msg.mask] = np.array(msg.bg, dtype=np.uint8)
        elif isinstance(msg, CompositeCommand):
            view = self._slice(msg.dest)
            src = msg.pixels.astype(np.float64)
            alpha = src[..., 3:4] / 255.0
            view[..., :3] = np.clip(np.rint(
                src[..., :3] * alpha
                + view[..., :3].astype(np.float64) * (1 - alpha)),
                0, 255).astype(np.uint8)
            view[..., 3] = 255
        elif isinstance(msg, VideoFrameCommand):
            rgba = yuv.decode_frame(msg.pixel_format, msg.yuv_bytes,
                                    msg.src_width, msg.src_height)
            self._slice(msg.dest)[:] = yuv.scale_rgb(
                rgba, msg.dest.width, msg.dest.height)
        # Control messages (video lifecycle, cursor, audio) carry no
        # pixels; the minimal client ignores them.

    def _slice(self, rect) -> np.ndarray:
        return self.pixels[rect.y : rect.y2, rect.x : rect.x2]
