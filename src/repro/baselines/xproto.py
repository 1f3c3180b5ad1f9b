"""X: high-level application command forwarding over ssh -C.

The oldest architecture in the comparison: application display commands
travel to a window server running *on the client*.  High-level requests
are compact for fills and text, but images ship as raw XPutImage pixels
(the ssh tunnel's DEFLATE is the only compression), there is no video
path (MPlayer's x11 output blits full frames as images), and — the WAN
killer — the tight coupling between toolkit and window server costs
synchronous round trips throughout a page render, which is why X slows
~2.5x from LAN to WAN in Figure 2.
"""

from __future__ import annotations

import zlib
from typing import Tuple

import numpy as np

from ..display.xserver import AppCommand
from ..region import Rect

__all__ = ["price_x_command", "X_SYNC_EVERY", "SSH_STREAM_COMPRESSION"]

# One synchronous request (geometry queries, atoms, GCs, ...) for
# roughly every this many drawing commands.
X_SYNC_EVERY = 12

# ssh -C compresses the whole stream; protocol framing and small
# requests deflate well, but image payloads are priced by actually
# deflating them, so the factor applies to protocol bytes only.
SSH_STREAM_COMPRESSION = 0.85

_SMALL_REQUEST = 28  # fills, copies, GC tweaks
_ZLIB_RATE = 12e6  # ssh -C DEFLATE (level 6) on the era's CPU

# Per-stream cache of measured video-frame compression ratios so that
# pricing video does not deflate every frame (they are statistically
# identical); refreshed every _RATIO_REFRESH frames.
_RATIO_REFRESH = 16


class _VideoRatioCache:
    def __init__(self) -> None:
        self._ratios = {}
        self._counts = {}

    def ratio(self, key, pixels: np.ndarray) -> float:
        count = self._counts.get(key, 0)
        self._counts[key] = count + 1
        if key not in self._ratios or count % _RATIO_REFRESH == 0:
            data = pixels[..., :3].tobytes()
            self._ratios[key] = (len(zlib.compress(data, 6)) + 8) / len(data)
        return self._ratios[key]


_video_cache = _VideoRatioCache()


def _image_bytes(drawable, rect: Rect) -> Tuple[int, float]:
    """XPutImage cost: 24-bit pixels through the ssh tunnel's DEFLATE.

    Reads back the just-rendered content of the target drawable, which
    for X-family protocols may be an offscreen pixmap — offscreen
    drawing crosses the network too, since the real X server lives on
    the client.
    """
    pixels = drawable.fb.read_pixels(rect)[..., :3]
    data = pixels.tobytes()
    return len(zlib.compress(data, 6)) + _SMALL_REQUEST, \
        len(data) / _ZLIB_RATE


def price_x_command(command: AppCommand, server) -> Tuple[int, float]:
    """(wire bytes, server CPU seconds) for one X-forwarded command."""
    name = command.name
    rect = command.rect
    factor = SSH_STREAM_COMPRESSION
    if name in ("fill_rect", "copy_area", "video_setup", "video_move",
                "video_teardown", "draw_line", "draw_polyline",
                "draw_rect_outline"):
        return int(_SMALL_REQUEST * factor), 0.0
    if name == "fill_tiled":
        # The tile pixmap is uploaded once and cached client-side;
        # steady-state cost is one small request.
        return int((_SMALL_REQUEST + 16) * factor), 0.0
    if name in ("draw_text", "draw_text_aa"):
        # RENDER glyphs upload once into a client-side cache; steady
        # state is indices, slightly wider for the AA path.
        text = command.payload if isinstance(command.payload, str) else ""
        per_glyph = 3 if name == "draw_text_aa" else 2
        return int((_SMALL_REQUEST + per_glyph * max(len(text), 1))
                   * factor), 0.0
    if name in ("put_image", "fill_stipple", "composite"):
        return _image_bytes(command.drawable, rect)
    if name == "video_put":
        # No XVideo over the wire: the player blits dst-sized RGB.
        npixels = rect.area
        key = ("x", command.payload)
        sample = server.ws.screen.fb.read_pixels(rect)
        ratio = _video_cache.ratio(key, sample)
        nbytes = int(npixels * 3 * ratio) + _SMALL_REQUEST
        return nbytes, npixels * 3 / _ZLIB_RATE
    # Unknown commands cost a small request.
    return _SMALL_REQUEST, 0.0
