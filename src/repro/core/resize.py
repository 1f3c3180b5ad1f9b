"""Server-side screen scaling (paper Section 6).

THINC decouples the session's framebuffer size from the size at which a
client views it: after a client reports a smaller viewport, the server
resizes every update before transmission.  Resizing is implemented with
a simplified Fant resampler — separable, area-weighted pixel mixing —
which anti-aliases downscales at very low cost (Section 7 cites Fant's
non-aliasing spatial transform).  The kernel is exact integer
arithmetic: every output sample is the area average of the source
rectangle it covers, rounded half-to-even.

The per-command policy follows the paper exactly:

=========  =============================================================
command    policy
=========  =============================================================
RAW        resampled — pure pixel data, large bandwidth win
PFILL      the tile image is resized
BITMAP     converted to RAW and resampled (1-bit data cannot carry the
           intermediate values anti-aliasing needs)
SFILL      sent unmodified apart from coordinates — no savings possible
COPY       coordinates scaled
video      frames resampled to the scaled destination and re-encoded
=========  =============================================================
"""

from __future__ import annotations

import functools
import math
from typing import List

import numpy as np

from ..protocol.commands import (BitmapCommand, Command, CompositeCommand,
                                 CopyCommand, PFillCommand, RawCommand,
                                 SFillCommand, VideoFrameCommand)
from ..region import Rect
from ..video import yuv

__all__ = ["resample", "scale_rect", "scale_command", "DisplayScaler"]


@functools.lru_cache(maxsize=512)
def _taps(src_len: int, dst_len: int):
    """``S`` and the ``(indices, weights)`` taps of one axis.

    With ``S/D = src_len/dst_len`` in lowest terms and a source pixel
    ``D`` units wide, destination pixel ``j`` covers ``[j*S, (j+1)*S)``:
    at most ``ceil(S/D) + 1`` source pixels, weighted by their overlap —
    integers summing to ``S``.  Tap ``k`` holds the ``k``-th of them for
    every ``j`` at once (weight 0 where ``j`` has fewer).
    """
    g = math.gcd(src_len, dst_len)
    s, d = src_len // g, dst_len // g
    lo = np.arange(dst_len, dtype=np.intp) * s
    taps = []
    for k in range(-(-s // d) + 1):
        i = lo // d + k
        w = np.minimum(lo + s, (i + 1) * d) - np.maximum(lo, i * d)
        if (w > 0).any():
            taps.append((np.minimum(i, src_len - 1),
                         np.maximum(w, 0).astype(np.int32).reshape(-1, 1)))
    return s, tuple(taps)


def _sum_taps(arr: np.ndarray, taps, axis: int, dtype) -> np.ndarray:
    """``S`` times the area average along *axis* of an HxWxC block."""
    acc = None
    for idx, w in taps:
        term = arr.take(idx, axis).astype(dtype, copy=False)
        term *= w if axis else w[:, None]
        if acc is None:
            acc = term
        else:
            acc += term
    return acc


def resample(pixels: np.ndarray, dst_w: int, dst_h: int) -> np.ndarray:
    """Resample an HxW[xC] uint8 image to dst_w x dst_h, anti-aliased."""
    if dst_w <= 0 or dst_h <= 0:
        raise ValueError("target dimensions must be positive")
    px = np.asarray(pixels, dtype=np.uint8)
    h, w = px.shape[:2]
    if h == 0 or w == 0:
        raise ValueError("cannot resample an empty image")
    # Both axes leave the numerator of the average over den = S_y * S_x.
    (sy, taps_y), (sx, taps_x) = _taps(h, dst_h), _taps(w, dst_w)
    den = sy * sx
    dtype = np.int32 if 255 * den * 2 < 2 ** 31 else np.int64
    num = px.reshape(h, w, -1)
    if h != dst_h:
        num = _sum_taps(num, taps_y, 0, dtype)
    if w != dst_w:
        num = _sum_taps(num, taps_x, 1, dtype)
    if den > 1:
        # rint(num / den) is floor((num + den // 2) / den), except that
        # a tie (even den only) whose floor is even must stay there.
        if den % 2 == 0:
            num += (num // den & 1) - 1
        num += den // 2
        num //= den
    return num.astype(np.uint8).reshape((dst_h, dst_w) + px.shape[2:])


def scale_rect(rect: Rect, sx: float, sy: float) -> Rect:
    """Map a rect into client space, covering at least one pixel."""
    x1 = math.floor(rect.x * sx)
    y1 = math.floor(rect.y * sy)
    x2 = max(x1 + 1, math.ceil(rect.x2 * sx))
    y2 = max(y1 + 1, math.ceil(rect.y2 * sy))
    return Rect.from_corners(x1, y1, x2, y2)


def _bitmap_to_rgba(cmd: BitmapCommand) -> np.ndarray:
    """Expand a stipple into RGBA pixels for RAW conversion."""
    h, w = cmd.mask.shape
    out = np.zeros((h, w, 4), dtype=np.uint8)
    out[cmd.mask] = np.asarray(cmd.fg, dtype=np.uint8)
    if cmd.bg is not None:
        out[~cmd.mask] = np.asarray(cmd.bg, dtype=np.uint8)
    # Transparent stipple: zero bits keep alpha 0 so the client blends.
    return out


class DisplayScaler:
    """Maps protocol commands from server to client coordinates.

    The general form of Section 6's server-side resizing: the client
    views ``view_rect`` (a sub-region of the server framebuffer; the
    whole screen by default) scaled into its viewport.  A full-screen
    view with a small viewport is the zoomed-out PDA case; a small view
    rect is the user having zoomed in on part of the desktop.
    """

    def __init__(self, server_size, client_size, view_rect: Rect = None):
        sw, sh = server_size
        cw, ch = client_size
        if min(sw, sh, cw, ch) <= 0:
            raise ValueError("sizes must be positive")
        self.server_w = sw
        self.server_h = sh
        self.view = view_rect if view_rect is not None else Rect(
            0, 0, sw, sh)
        if self.view.empty:
            raise ValueError("view rect must be non-empty")
        self.sx = cw / self.view.width
        self.sy = ch / self.view.height
        self.client_w = cw
        self.client_h = ch

    @property
    def identity(self) -> bool:
        # A 1:1 view is only a passthrough when it covers the *whole*
        # server framebuffer: an origin-anchored sub-view (e.g. a tile
        # wall's top-left tile) still needs clipping, and COPY sources
        # outside it still need materialising.
        return (self.sx == 1.0 and self.sy == 1.0
                and self.view.x == 0 and self.view.y == 0
                and self.view.width == self.server_w
                and self.view.height == self.server_h)

    @property
    def key(self):
        """Hashable identity of this scaling transform.

        Two scalers with equal keys produce identical output for any
        command — the view rect and the client size fully determine
        ``sx``/``sy`` — so the prepare plane prepares a command once
        per distinct key among its receivers.
        """
        return (self.view.x, self.view.y, self.view.width,
                self.view.height, self.client_w, self.client_h)

    def scale_command(self, cmd: Command,
                      read_back=None) -> List[Command]:
        """Apply the Section 6 per-command policy; may return [].

        *read_back*, when given, is ``rect -> pixels`` over the live
        server framebuffer.  A COPY whose source lies outside the view
        cannot be replayed client-side — the client never received
        those pixels — so it is materialised as RAW from the
        framebuffer (which already holds the post-copy content at
        submit time).  Without *read_back* such a copy would fault in
        ``translated``; every server-driven path supplies it.
        """
        if self.identity:
            return [cmd]
        if (isinstance(cmd, CopyCommand) and read_back is not None
                and not self.view.contains(cmd.src_rect)):
            cmd = RawCommand(cmd.dest, read_back(cmd.dest))
        visible = cmd.dest.intersect(self.view)
        if visible.empty:
            return []
        if isinstance(cmd, VideoFrameCommand):
            # Video frames cannot be rect-clipped (all-or-nothing); the
            # visible portion is cropped out of the decoded frame.
            return [self._map_video(cmd, visible)]
        if visible != cmd.dest:
            # Zoomed view: only the part inside the view travels.
            out: List[Command] = []
            for part in cmd.clipped([visible]):
                out.extend(self._map_command(part))
            return out
        return self._map_command(cmd)

    def _map_command(self, cmd: Command) -> List[Command]:
        cmd = cmd.translated(-self.view.x, -self.view.y) \
            if (self.view.x or self.view.y) else cmd
        dest = scale_rect(cmd.dest, self.sx, self.sy).intersect(
            Rect(0, 0, self.client_w, self.client_h))
        if dest.empty:
            return []
        if isinstance(cmd, SFillCommand):
            return [SFillCommand(dest, cmd.color)]
        if isinstance(cmd, RawCommand):
            pixels = resample(cmd.pixels, dest.width, dest.height)
            return [RawCommand(dest, pixels, cmd.encoding)]
        if isinstance(cmd, PFillCommand):
            tw = max(1, round(cmd.tile.shape[1] * self.sx))
            th = max(1, round(cmd.tile.shape[0] * self.sy))
            tile = resample(cmd.tile, tw, th)
            origin = (math.floor(cmd.origin[0] * self.sx),
                      math.floor(cmd.origin[1] * self.sy))
            return [PFillCommand(dest, tile, origin)]
        if isinstance(cmd, BitmapCommand):
            rgba = resample(_bitmap_to_rgba(cmd), dest.width, dest.height)
            if cmd.bg is None:
                return [CompositeCommand(dest, rgba)]
            return [RawCommand(dest, rgba)]
        if isinstance(cmd, CompositeCommand):
            pixels = resample(cmd.pixels, dest.width, dest.height)
            return [CompositeCommand(dest, pixels)]
        if isinstance(cmd, CopyCommand):
            sx = math.floor(cmd.src_x * self.sx)
            sy = math.floor(cmd.src_y * self.sy)
            return [CopyCommand(sx, sy, dest)]
        return [cmd]

    def map_point(self, x: int, y: int):
        """Server point -> client point (for cursor/input geometry)."""
        return (int((x - self.view.x) * self.sx),
                int((y - self.view.y) * self.sy))

    def _map_video(self, cmd: VideoFrameCommand,
                   visible: Rect) -> VideoFrameCommand:
        """Crop (for zoomed views) and resample one video frame."""
        dest = scale_rect(visible.translate(-self.view.x, -self.view.y),
                          self.sx, self.sy).intersect(
            Rect(0, 0, self.client_w, self.client_h))
        rgb = yuv.decode_frame(cmd.pixel_format, cmd.yuv_bytes,
                               cmd.src_width, cmd.src_height)[..., :3]
        if visible != cmd.dest:
            # Map the visible screen area back into source pixels.
            fx = cmd.src_width / cmd.dest.width
            fy = cmd.src_height / cmd.dest.height
            x0 = int((visible.x - cmd.dest.x) * fx)
            y0 = int((visible.y - cmd.dest.y) * fy)
            x1 = max(x0 + 2, math.ceil((visible.x2 - cmd.dest.x) * fx))
            y1 = max(y0 + 2, math.ceil((visible.y2 - cmd.dest.y) * fy))
            rgb = rgb[y0 : min(y1, cmd.src_height),
                      x0 : min(x1, cmd.src_width)]
        new_w = max(2, min(rgb.shape[1],
                           int(round(rgb.shape[1] * self.sx))) // 2 * 2)
        new_h = max(2, min(rgb.shape[0],
                           int(round(rgb.shape[0] * self.sy))) // 2 * 2)
        # Zooming in enlarges: allow upscaling up to the visible size.
        if self.sx > 1.0 or self.sy > 1.0:
            new_w = max(2, min(dest.width, int(
                round(rgb.shape[1] * self.sx))) // 2 * 2)
            new_h = max(2, min(dest.height, int(
                round(rgb.shape[0] * self.sy))) // 2 * 2)
        scaled = resample(rgb, new_w, new_h)
        data = yuv.encode_frame(cmd.pixel_format, scaled)
        return VideoFrameCommand(cmd.stream_id, dest, new_w, new_h, data,
                                 frame_no=cmd.frame_no,
                                 pixel_format=cmd.pixel_format)
