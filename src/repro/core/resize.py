"""Server-side screen scaling (paper Section 6).

THINC decouples the session's framebuffer size from the size at which a
client views it: after a client reports a smaller viewport, the server
resizes every update before transmission.  Resizing is implemented with
a simplified Fant resampler — separable, area-weighted pixel mixing —
which anti-aliases downscales at very low cost (Section 7 cites Fant's
non-aliasing spatial transform).

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

import math
from typing import List

import numpy as np

from ..protocol.commands import (BitmapCommand, Command, CompositeCommand,
                                 CopyCommand, PFillCommand, RawCommand,
                                 SFillCommand, VideoFrameCommand)
from ..region import Rect
from ..video import yuv

__all__ = ["resample", "scale_rect", "scale_command", "DisplayScaler"]


def _resample_axis(arr: np.ndarray, dst_len: int, axis: int) -> np.ndarray:
    """Area-weighted 1-D resample along *axis* (Fant-style pixel mixing).

    Each destination pixel is the exact average of the source interval
    it covers, computed via linear interpolation of the cumulative sum —
    correct for both magnification and minification.
    """
    src_len = arr.shape[axis]
    if src_len == dst_len:
        return arr
    moved = np.moveaxis(arr, axis, 0).astype(np.float64)
    # Prefix integral of the source signal: cs[i] = sum of first i pixels.
    cs = np.concatenate(
        [np.zeros((1,) + moved.shape[1:]), np.cumsum(moved, axis=0)], axis=0)
    scale = src_len / dst_len
    edges = np.arange(dst_len + 1) * scale
    idx = np.clip(edges.astype(int), 0, src_len)
    frac = np.clip(edges - idx, 0.0, 1.0)
    # Integral up to a fractional position, by linear interpolation.
    upper = np.clip(idx + 1, 0, src_len)
    vals = cs[idx] + (cs[upper] - cs[idx]) * frac.reshape(
        (-1,) + (1,) * (moved.ndim - 1))
    sums = vals[1:] - vals[:-1]
    out = sums / scale
    return np.moveaxis(out, 0, axis)


def resample(pixels: np.ndarray, dst_w: int, dst_h: int) -> np.ndarray:
    """Resample an HxWxC uint8 image to dst_w x dst_h, anti-aliased."""
    if dst_w <= 0 or dst_h <= 0:
        raise ValueError("target dimensions must be positive")
    out = _resample_axis(np.asarray(pixels), dst_h, 0)
    out = _resample_axis(out, dst_w, 1)
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


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
        ``sx``/``sy`` — so the prepare plane uses this as the viewport
        half of its prepared-command cache key.
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
            cmd = RawCommand(cmd.dest, read_back(cmd.dest), compress=True)
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
            return [RawCommand(dest, rgba, compress=True)]
        if isinstance(cmd, CompositeCommand):
            pixels = resample(cmd.pixels, dest.width, dest.height)
            return [CompositeCommand(dest, pixels)]
        if isinstance(cmd, CopyCommand):
            sx = math.floor(cmd.src_x * self.sx)
            sy = math.floor(cmd.src_y * self.sy)
            return [CopyCommand(sx, sy, dest)]
        if isinstance(cmd, VideoFrameCommand):
            return [self._scale_video(cmd, dest)]
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
            x1 = max(x0 + 2, int(math.ceil(visible.x2 - cmd.dest.x) * fx))
            y1 = max(y0 + 2, int(math.ceil(visible.y2 - cmd.dest.y) * fy))
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

    def _scale_video(self, cmd: VideoFrameCommand,
                     dest: Rect) -> VideoFrameCommand:
        """Resample video server-side and re-encode as YV12.

        The scaled frame keeps YV12's 12 bpp, so PDA-sized video costs
        roughly (client area / server area) of the original bandwidth —
        the Figure 6 effect.
        """
        rgb = yuv.decode_frame(cmd.pixel_format, cmd.yuv_bytes,
                               cmd.src_width, cmd.src_height)[..., :3]
        # The source data scales with the viewport ratio like every other
        # update; the client's hardware scaler stretches it back to the
        # (scaled) destination window.
        new_w = max(2, int(round(cmd.src_width * self.sx)) // 2 * 2)
        new_h = max(2, int(round(cmd.src_height * self.sy)) // 2 * 2)
        scaled = resample(rgb, new_w, new_h)
        data = yuv.encode_frame(cmd.pixel_format, scaled)
        return VideoFrameCommand(cmd.stream_id, dest, new_w, new_h, data,
                                 frame_no=cmd.frame_no,
                                 pixel_format=cmd.pixel_format)
