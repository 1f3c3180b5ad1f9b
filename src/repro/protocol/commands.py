"""THINC protocol command objects.

The five display commands of Table 1 (RAW, COPY, SFILL, PFILL, BITMAP)
plus the video-stream messages of Section 4.2, implemented in the
object-oriented style the paper describes: a generic interface the
server manipulates (sizing, clipping, merging, splitting, encoding)
with one concrete implementation per command.

Overwrite semantics (Section 4) drive the command queue:

* **partial** — opaque commands that may be partially overwritten; the
  queue clips them down to their still-visible remainder (RAW, COPY,
  PFILL, and BITMAP with an opaque background).
* **complete** — opaque commands that are only ever evicted whole
  (SFILL, whose split representation would cost more than it saves, and
  video frames, which successive frames overwrite wholesale).
* **transparent** — commands whose output depends on what was drawn
  beneath them; they never evict others and are themselves evicted only
  when fully covered (BITMAP glyph text with a transparent background,
  and alpha COMPOSITE blocks).

Every command knows its exact wire size; RAW is the only command whose
payload is compressed (Section 7).  Its wire tag is a bounded
:class:`~repro.codec.Encoding` enum — PNG-model lossless (the paper's
choice), RLE, JPEG-style lossy, or uncompressed — and the encoded bytes
are computed lazily and cached.
"""

from __future__ import annotations

import struct
from enum import Enum
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..codec import Encoding
from ..region import Rect, Region
from . import compression
from .limits import LIMITS

__all__ = [
    "OverwriteClass",
    "Command",
    "RawCommand",
    "CopyCommand",
    "SFillCommand",
    "PFillCommand",
    "BitmapCommand",
    "CompositeCommand",
    "VideoFrameCommand",
    "decode_command",
    "COMMAND_TYPES",
]

Color = Tuple[int, int, int, int]

_RECT = struct.Struct(">HHHH")
_HEADER = struct.Struct(">BHHHH")  # type + rect
# Per-command payload metadata, precompiled once at import.
_RAW_META = struct.Struct(">BI")       # encoding tag + payload length
_COPY_SRC = struct.Struct(">HH")       # src_x, src_y
_PFILL_META = struct.Struct(">BBBB")   # tile h/w + relative origin
_BOOL = struct.Struct(">B")
_U32 = struct.Struct(">I")
_VFRAME_META = struct.Struct(">HIBHHI")


class OverwriteClass(Enum):
    """How a command overwrites and is overwritten (Section 4)."""

    PARTIAL = "partial"
    COMPLETE = "complete"
    TRANSPARENT = "transparent"


def _pack_rect(rect: Rect) -> bytes:
    return _RECT.pack(rect.x, rect.y, rect.width, rect.height)


def _unpack_rect(data: bytes, offset: int) -> Tuple[Rect, int]:
    _decode_need(data, offset, _RECT.size, "command rect")
    x, y, w, h = _RECT.unpack_from(data, offset)
    return Rect(x, y, w, h), offset + _RECT.size


def _decode_need(data: bytes, offset: int, size: int, what: str) -> None:
    """Decode bounds guard: *size* more bytes must exist at *offset*.

    Raises a plain ValueError; the wire layer's frame dispatcher
    re-raises decoder failures as ProtocolError, so command decoders
    stay independent of the wire module (layering: wire imports
    commands, not the reverse).
    """
    if offset + size > len(data):
        raise ValueError(
            f"truncated {what}: need {size} bytes at offset {offset}, "
            f"have {len(data) - offset}")


class Command:
    """Generic interface over all protocol display commands."""

    kind: str = "?"
    type_id: int = 0
    overwrite_class: OverwriteClass = OverwriteClass.PARTIAL

    def __init__(self, dest: Rect):
        if dest.empty:
            raise ValueError(f"{type(self).__name__} needs a non-empty rect")
        self.dest = dest
        # Memoized wire size.  Commands are immutable once built (clip,
        # split and merge all create fresh instances), so the encoded
        # size can only be computed once; the cache keeps SRSF queue
        # placement and CommandQueue.total_wire_size from re-encoding
        # per call.
        self._wire_size: Optional[int] = None
        # Arrival sequence number; assigned when entering a CommandQueue.
        self.seq: int = -1
        # Real-time flag; set by the delivery layer near input events.
        self.realtime: bool = False
        # Scheduling floor: lowest SRSF queue index this command may be
        # placed in, raised by the dependency rules of Section 5.
        # -1 means the command has no dependencies.
        self.sched_floor: int = -1

    # -- geometry ------------------------------------------------------------

    @property
    def opaque_region(self) -> Region:
        """The pixels this command overwrites completely."""
        if self.overwrite_class is OverwriteClass.TRANSPARENT:
            return Region.empty()
        return Region.from_rect(self.dest)

    # -- queue manipulation ----------------------------------------------

    def translated(self, dx: int, dy: int) -> "Command":
        """A copy of this command drawing at a shifted location."""
        raise NotImplementedError

    def clipped(self, rects: Sequence[Rect]) -> List["Command"]:
        """Restrict the command to *rects* (subrects of ``dest``).

        Used by the queue to keep only the still-visible remainder of a
        partially overwritten command, and by the offscreen machinery to
        extract the part of a queue covered by a copy.
        """
        raise NotImplementedError

    def try_merge(self, later: "Command") -> Optional["Command"]:
        """Merge *later* (drawn after self) into one command, or None."""
        return None

    # -- delivery -----------------------------------------------------------

    def wire_size(self) -> int:
        """Exact bytes this command occupies on the wire (memoized)."""
        size = self._wire_size
        if size is None:
            size = self._wire_size = len(self.encode())
        return size

    def split(self, max_bytes: int) -> Tuple["Command", Optional["Command"]]:
        """Break off a prefix of at most *max_bytes* for non-blocking
        flushing; returns (head, remainder-or-None).

        Commands that cannot be usefully split return themselves whole —
        the flush layer then ships them in one piece once the socket has
        room.
        """
        return self, None

    # -- wire format ----------------------------------------------------------

    def encode(self) -> bytes:
        raise NotImplementedError

    def apply(self, fb) -> None:
        """Execute the command against a client framebuffer."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.dest!r})"


class RawCommand(Command):
    """RAW — display raw pixel data at a given location (Table 1).

    The last-resort command, and the only one whose payload may be
    compressed to mitigate its impact on the network.  The wire tag
    names one of the bounded :class:`~repro.codec.Encoding` values;
    ``compress`` accepts the historical boolean (False -> NONE,
    True -> PNG) as well as an explicit encoding.
    """

    kind = "raw"
    type_id = 1
    overwrite_class = OverwriteClass.PARTIAL

    def __init__(self, dest: Rect, pixels: np.ndarray, compress=True):
        super().__init__(dest)
        pixels = np.ascontiguousarray(pixels, dtype=np.uint8)
        if pixels.shape != (dest.height, dest.width, 4):
            raise ValueError(
                f"pixels {pixels.shape} do not match {dest!r}"
            )
        self.pixels = pixels
        if compress is True:
            self.encoding = Encoding.PNG
        elif compress is False:
            self.encoding = Encoding.NONE
        else:
            self.encoding = Encoding(int(compress))
        self._payload: Optional[bytes] = None
        # Estimated wire size for scheduling, set when this command is
        # the remainder of a split: avoids recompressing the whole tail
        # on every flush period just to know its queue.
        self._size_hint: Optional[int] = None

    @property
    def compress(self) -> bool:
        """Historical flag: is the payload anything but raw rows?"""
        return self.encoding is not Encoding.NONE

    def with_encoding(self, encoding) -> "RawCommand":
        """This command under another encoding (fresh payload memo)."""
        encoding = Encoding(int(encoding))
        if encoding is self.encoding:
            return self
        cmd = RawCommand(self.dest, self.pixels, encoding)
        cmd.seq = self.seq
        cmd.realtime = self.realtime
        cmd.sched_floor = self.sched_floor
        return cmd

    def _encoded_payload(self) -> bytes:
        if self._payload is None:
            if self.encoding is Encoding.PNG:
                self._payload = compression.png_compress(self.pixels)
            elif self.encoding is Encoding.RLE:
                self._payload = compression.rle_compress(self.pixels)
            elif self.encoding is Encoding.LOSSY:
                self._payload = compression.lossy_compress(self.pixels)
            else:
                self._payload = self.pixels.tobytes()
        return self._payload

    def wire_size(self) -> int:
        size = self._wire_size
        if size is None:
            if self._payload is None and self._size_hint is not None:
                # Scheduling estimate for a split remainder; not cached,
                # so the exact size takes over once the payload exists.
                return self._size_hint
            size = self._wire_size = len(self.encode())
        return size

    def translated(self, dx: int, dy: int) -> "RawCommand":
        cmd = RawCommand(self.dest.translate(dx, dy), self.pixels,
                         self.encoding)
        cmd._payload = self._payload
        cmd._wire_size = self._wire_size
        return cmd

    def clipped(self, rects: Sequence[Rect]) -> List[Command]:
        out: List[Command] = []
        for r in rects:
            sub = r.intersect(self.dest)
            if sub.empty:
                continue
            block = self.pixels[
                sub.y - self.dest.y : sub.y2 - self.dest.y,
                sub.x - self.dest.x : sub.x2 - self.dest.x,
            ]
            out.append(RawCommand(sub, block, self.encoding))
        return out

    def try_merge(self, later: Command) -> Optional[Command]:
        if not isinstance(later, RawCommand) \
                or later.encoding is not self.encoding:
            return None
        a, b = self.dest, later.dest
        # Vertical continuation (scan-line chunks of one image).
        if a.x == b.x and a.width == b.width and a.y2 == b.y:
            merged = Rect(a.x, a.y, a.width, a.height + b.height)
            return RawCommand(merged,
                              np.vstack([self.pixels, later.pixels]),
                              self.encoding)
        # Horizontal continuation.
        if a.y == b.y and a.height == b.height and a.x2 == b.x:
            merged = Rect(a.x, a.y, a.width + b.width, a.height)
            return RawCommand(merged,
                              np.hstack([self.pixels, later.pixels]),
                              self.encoding)
        return None

    def _tail_size_estimate(self, rows: np.ndarray, per_row: int) -> int:
        """Estimated wire size of a split tail carrying *rows*.

        Computed from the encoding the tail actually carries, so the
        scheduler's queue placement stays honest: NONE and RLE have
        cheap exact sizes; the DEFLATE-backed encodings (PNG, LOSSY)
        fall back to the parent's measured per-row cost.
        """
        overhead = _HEADER.size + _RAW_META.size
        if self.encoding is Encoding.NONE:
            return overhead + rows.size
        if self.encoding is Encoding.RLE:
            return overhead + compression.rle_size(rows)
        return overhead + per_row * rows.shape[0]

    def split(self, max_bytes: int) -> Tuple[Command, Optional[Command]]:
        # Split by scan lines so partially sent updates show whole rows.
        if self.dest.height <= 1:
            return self, None
        overhead = _HEADER.size + _RAW_META.size
        if self.wire_size() <= max_bytes:
            return self, None
        per_row = max(1, (self.wire_size() - overhead) // self.dest.height)
        rows = max(1, (max_bytes - overhead) // per_row)
        rows = min(rows, self.dest.height - 1)
        top = Rect(self.dest.x, self.dest.y, self.dest.width, rows)
        bottom = Rect(self.dest.x, self.dest.y + rows, self.dest.width,
                      self.dest.height - rows)
        head = RawCommand(top, self.pixels[:rows], self.encoding)
        rest = RawCommand(bottom, self.pixels[rows:], self.encoding)
        rest._size_hint = self._tail_size_estimate(self.pixels[rows:],
                                                   per_row)
        head.seq = rest.seq = self.seq
        head.realtime = rest.realtime = self.realtime
        head.sched_floor = rest.sched_floor = self.sched_floor
        return head, rest

    def encode(self) -> bytes:
        payload = self._encoded_payload()
        return (_HEADER.pack(self.type_id, *self.dest.as_tuple())
                + _RAW_META.pack(int(self.encoding), len(payload))
                + payload)

    @classmethod
    def decode(cls, data: bytes, offset: int) -> "RawCommand":
        rect, offset = _unpack_rect(data, offset)
        _decode_need(data, offset, _RAW_META.size, "RAW metadata")
        encoding, length = _RAW_META.unpack_from(data, offset)
        offset += _RAW_META.size
        if encoding > LIMITS.max_raw_encoding:
            raise ValueError(f"unknown RAW encoding tag {encoding}")
        _decode_need(data, offset, length, "RAW payload")
        payload = data[offset : offset + length]
        if encoding == Encoding.PNG:
            pixels = compression.png_decompress(payload)
        elif encoding == Encoding.RLE:
            pixels = compression.rle_decompress(payload)
        elif encoding == Encoding.LOSSY:
            pixels = compression.lossy_decompress(payload)
        else:
            if length != rect.height * rect.width * 4:
                raise ValueError(
                    f"RAW payload is {length} bytes, rect {rect!r} "
                    f"needs {rect.height * rect.width * 4}")
            pixels = np.frombuffer(payload, dtype=np.uint8).reshape(
                rect.height, rect.width, 4)
        if pixels.shape != (rect.height, rect.width, 4):
            raise ValueError(
                f"RAW payload decoded to {pixels.shape}, rect "
                f"is {rect!r}")
        cmd = cls(rect, pixels, encoding)
        cmd._payload = bytes(payload)
        return cmd

    def apply(self, fb) -> None:
        fb.put_pixels(self.dest, self.pixels)


class CopyCommand(Command):
    """COPY — copy a framebuffer area to new coordinates (Table 1).

    Accelerates scrolling and opaque window movement without resending
    screen data; only src/dst coordinates travel on the wire.
    """

    kind = "copy"
    type_id = 2

    def __init__(self, src_x: int, src_y: int, dest: Rect):
        super().__init__(dest)
        if src_x < 0 or src_y < 0:
            raise ValueError("COPY source must be within the framebuffer")
        self.src_x = src_x
        self.src_y = src_y

    @property
    def src_rect(self) -> Rect:
        return Rect(self.src_x, self.src_y, self.dest.width,
                    self.dest.height)

    @property
    def overwrite_class(self) -> OverwriteClass:  # type: ignore[override]
        """Self-overlapping copies (scrolls) must stay atomic.

        The client executes a COPY as one snapshot-then-store blit.  If
        the queue fragmented a copy whose source overlaps its own
        destination, one fragment could overwrite pixels a later
        fragment still needs to read — so such copies are COMPLETE
        (evicted only whole); disjoint copies fragment safely.
        """
        if self.src_rect.overlaps(self.dest):
            return OverwriteClass.COMPLETE
        return OverwriteClass.PARTIAL

    def translated(self, dx: int, dy: int) -> "CopyCommand":
        # Translation moves the whole coordinate frame (offscreen queue
        # relocation), so the source shifts with the destination.
        return CopyCommand(self.src_x + dx, self.src_y + dy,
                           self.dest.translate(dx, dy))

    def clipped(self, rects: Sequence[Rect]) -> List[Command]:
        out: List[Command] = []
        for r in rects:
            sub = r.intersect(self.dest)
            if sub.empty:
                continue
            out.append(CopyCommand(
                self.src_x + (sub.x - self.dest.x),
                self.src_y + (sub.y - self.dest.y),
                sub,
            ))
        return out

    def encode(self) -> bytes:
        return (_HEADER.pack(self.type_id, *self.dest.as_tuple())
                + _COPY_SRC.pack(self.src_x, self.src_y))

    @classmethod
    def decode(cls, data: bytes, offset: int) -> "CopyCommand":
        rect, offset = _unpack_rect(data, offset)
        _decode_need(data, offset, _COPY_SRC.size, "COPY source")
        sx, sy = _COPY_SRC.unpack_from(data, offset)
        return cls(sx, sy, rect)

    def apply(self, fb) -> None:
        fb.copy_area(self.src_rect, self.dest.x, self.dest.y)


class SFillCommand(Command):
    """SFILL — fill an area with a single colour (Table 1)."""

    kind = "sfill"
    type_id = 3
    overwrite_class = OverwriteClass.COMPLETE

    def __init__(self, dest: Rect, color: Color):
        super().__init__(dest)
        if len(color) != 4:
            raise ValueError("colour must have 4 components (RGBA)")
        self.color = tuple(int(c) & 0xFF for c in color)

    def translated(self, dx: int, dy: int) -> "SFillCommand":
        return SFillCommand(self.dest.translate(dx, dy), self.color)

    def clipped(self, rects: Sequence[Rect]) -> List[Command]:
        return [SFillCommand(r.intersect(self.dest), self.color)
                for r in rects if r.intersect(self.dest)]

    def try_merge(self, later: Command) -> Optional[Command]:
        if not isinstance(later, SFillCommand) or later.color != self.color:
            return None
        a, b = self.dest, later.dest
        if a.x == b.x and a.width == b.width and a.y2 == b.y:
            return SFillCommand(Rect(a.x, a.y, a.width,
                                     a.height + b.height), self.color)
        if a.y == b.y and a.height == b.height and a.x2 == b.x:
            return SFillCommand(Rect(a.x, a.y, a.width + b.width,
                                     a.height), self.color)
        return None

    def encode(self) -> bytes:
        return (_HEADER.pack(self.type_id, *self.dest.as_tuple())
                + bytes(self.color))

    @classmethod
    def decode(cls, data: bytes, offset: int) -> "SFillCommand":
        rect, offset = _unpack_rect(data, offset)
        if len(data) < offset + 4:
            raise ValueError("truncated SFILL command")
        color = tuple(data[offset : offset + 4])
        return cls(rect, color)  # type: ignore[arg-type]

    def apply(self, fb) -> None:
        fb.fill_rect(self.dest, self.color)


class PFillCommand(Command):
    """PFILL — tile an area with a pixel pattern (Table 1)."""

    kind = "pfill"
    type_id = 4
    overwrite_class = OverwriteClass.PARTIAL

    def __init__(self, dest: Rect, tile: np.ndarray,
                 origin: Tuple[int, int] = (0, 0)):
        super().__init__(dest)
        tile = np.ascontiguousarray(tile, dtype=np.uint8)
        if tile.ndim != 3 or tile.shape[2] != 4 or tile.size == 0:
            raise ValueError("tile must be a non-empty HxWx4 array")
        if tile.shape[0] > 0xFF or tile.shape[1] > 0xFF:
            raise ValueError("tiles larger than 255x255 are not sensible")
        self.tile = tile
        self.origin = (int(origin[0]), int(origin[1]))

    def translated(self, dx: int, dy: int) -> "PFillCommand":
        return PFillCommand(self.dest.translate(dx, dy), self.tile,
                            (self.origin[0] + dx, self.origin[1] + dy))

    def clipped(self, rects: Sequence[Rect]) -> List[Command]:
        return [PFillCommand(r.intersect(self.dest), self.tile, self.origin)
                for r in rects if r.intersect(self.dest)]

    def try_merge(self, later: Command) -> Optional[Command]:
        if (not isinstance(later, PFillCommand)
                or later.origin != self.origin
                or later.tile.shape != self.tile.shape
                or not np.array_equal(later.tile, self.tile)):
            return None
        a, b = self.dest, later.dest
        if a.x == b.x and a.width == b.width and a.y2 == b.y:
            return PFillCommand(Rect(a.x, a.y, a.width,
                                     a.height + b.height),
                                self.tile, self.origin)
        if a.y == b.y and a.height == b.height and a.x2 == b.x:
            return PFillCommand(Rect(a.x, a.y, a.width + b.width,
                                     a.height), self.tile, self.origin)
        return None

    def encode(self) -> bytes:
        th, tw = self.tile.shape[0], self.tile.shape[1]
        # Origin is transmitted relative to the dest rect, so it always
        # fits in a tile-sized signed offset.
        ox = (self.origin[0] - self.dest.x) % tw
        oy = (self.origin[1] - self.dest.y) % th
        return (_HEADER.pack(self.type_id, *self.dest.as_tuple())
                + _PFILL_META.pack(th, tw, oy, ox)
                + self.tile.tobytes())

    @classmethod
    def decode(cls, data: bytes, offset: int) -> "PFillCommand":
        rect, offset = _unpack_rect(data, offset)
        _decode_need(data, offset, _PFILL_META.size, "PFILL metadata")
        th, tw, oy, ox = _PFILL_META.unpack_from(data, offset)
        offset += _PFILL_META.size
        count = th * tw * 4
        _decode_need(data, offset, count, "PFILL tile")
        tile = np.frombuffer(data[offset : offset + count],
                             dtype=np.uint8).reshape(th, tw, 4)
        # Reconstruct an absolute origin equivalent to the relative one.
        return cls(rect, tile, (rect.x + ox - tw, rect.y + oy - th))

    def apply(self, fb) -> None:
        fb.tile_rect(self.dest, self.tile, self.origin)


class BitmapCommand(Command):
    """BITMAP — fill a region through a 1-bit stipple (Table 1).

    With a background colour the fill is opaque (partial class); without
    one the zero bits leave existing content intact, making the command
    transparent — this is how glyph text travels.
    """

    kind = "bitmap"
    type_id = 5

    def __init__(self, dest: Rect, mask: np.ndarray, fg: Color,
                 bg: Optional[Color] = None):
        super().__init__(dest)
        mask = np.ascontiguousarray(mask, dtype=bool)
        if mask.shape != (dest.height, dest.width):
            raise ValueError(f"mask {mask.shape} does not match {dest!r}")
        self.mask = mask
        if len(fg) != 4 or (bg is not None and len(bg) != 4):
            raise ValueError("colours must have 4 components (RGBA)")
        self.fg = tuple(int(c) & 0xFF for c in fg)
        self.bg = None if bg is None else tuple(int(c) & 0xFF for c in bg)

    @property
    def overwrite_class(self) -> OverwriteClass:  # type: ignore[override]
        return (OverwriteClass.PARTIAL if self.bg is not None
                else OverwriteClass.TRANSPARENT)

    def translated(self, dx: int, dy: int) -> "BitmapCommand":
        return BitmapCommand(self.dest.translate(dx, dy), self.mask,
                             self.fg, self.bg)

    def clipped(self, rects: Sequence[Rect]) -> List[Command]:
        out: List[Command] = []
        for r in rects:
            sub = r.intersect(self.dest)
            if sub.empty:
                continue
            m = self.mask[
                sub.y - self.dest.y : sub.y2 - self.dest.y,
                sub.x - self.dest.x : sub.x2 - self.dest.x,
            ]
            out.append(BitmapCommand(sub, m, self.fg, self.bg))
        return out

    def try_merge(self, later: Command) -> Optional[Command]:
        """Merge runs of glyphs on a text baseline.

        Transparent stipples may merge across a small gap (the blank
        inter-glyph column): the gap is padded with zero bits, which a
        transparent stipple leaves untouched.  Opaque stipples must be
        exactly adjacent, since padding would wrongly paint background.
        """
        if (not isinstance(later, BitmapCommand)
                or later.fg != self.fg or later.bg != self.bg):
            return None
        a, b = self.dest, later.dest
        if a.y != b.y or a.height != b.height:
            return None
        gap = b.x - a.x2
        max_gap = 2 if self.bg is None else 0
        if gap < 0 or gap > max_gap:
            return None
        pad = np.zeros((a.height, gap), dtype=bool)
        merged_mask = np.hstack([self.mask, pad, later.mask])
        merged_rect = Rect(a.x, a.y, a.width + gap + b.width, a.height)
        return BitmapCommand(merged_rect, merged_mask, self.fg, self.bg)

    def encode(self) -> bytes:
        packed = np.packbits(self.mask, axis=1).tobytes()
        has_bg = self.bg is not None
        bg = self.bg if has_bg else (0, 0, 0, 0)
        return (_HEADER.pack(self.type_id, *self.dest.as_tuple())
                + bytes(self.fg) + _BOOL.pack(int(has_bg))
                + bytes(bg) + packed)

    @classmethod
    def decode(cls, data: bytes, offset: int) -> "BitmapCommand":
        rect, offset = _unpack_rect(data, offset)
        if len(data) < offset + 9:
            raise ValueError("truncated BITMAP command")
        fg = tuple(data[offset : offset + 4])
        has_bg = data[offset + 4]
        bg = tuple(data[offset + 5 : offset + 9]) if has_bg else None
        offset += 9
        row_bytes = (rect.width + 7) // 8
        _decode_need(data, offset, row_bytes * rect.height, "BITMAP mask")
        packed = np.frombuffer(
            data[offset : offset + row_bytes * rect.height], dtype=np.uint8
        ).reshape(rect.height, row_bytes)
        mask = np.unpackbits(packed, axis=1)[:, : rect.width].astype(bool)
        return cls(rect, mask, fg, bg)  # type: ignore[arg-type]

    def apply(self, fb) -> None:
        fb.stipple_rect(self.dest, self.mask, self.fg, self.bg)


class CompositeCommand(Command):
    """An alpha-blended RGBA block (Porter–Duff "over").

    Not one of the five Table 1 commands, but required by THINC's 24-bit
    + alpha design for graphics compositing (Section 3): anti-aliased
    text and translucent UI travel as transparent commands.
    """

    kind = "composite"
    type_id = 6
    overwrite_class = OverwriteClass.TRANSPARENT

    def __init__(self, dest: Rect, pixels: np.ndarray):
        super().__init__(dest)
        pixels = np.ascontiguousarray(pixels, dtype=np.uint8)
        if pixels.shape != (dest.height, dest.width, 4):
            raise ValueError(f"pixels {pixels.shape} do not match {dest!r}")
        self.pixels = pixels
        self._payload: Optional[bytes] = None

    def _encoded_payload(self) -> bytes:
        if self._payload is None:
            self._payload = compression.png_compress(self.pixels)
        return self._payload

    def translated(self, dx: int, dy: int) -> "CompositeCommand":
        cmd = CompositeCommand(self.dest.translate(dx, dy), self.pixels)
        cmd._payload = self._payload
        cmd._wire_size = self._wire_size
        return cmd

    def clipped(self, rects: Sequence[Rect]) -> List[Command]:
        out: List[Command] = []
        for r in rects:
            sub = r.intersect(self.dest)
            if sub.empty:
                continue
            block = self.pixels[
                sub.y - self.dest.y : sub.y2 - self.dest.y,
                sub.x - self.dest.x : sub.x2 - self.dest.x,
            ]
            out.append(CompositeCommand(sub, block))
        return out

    def encode(self) -> bytes:
        payload = self._encoded_payload()
        return (_HEADER.pack(self.type_id, *self.dest.as_tuple())
                + _U32.pack(len(payload)) + payload)

    @classmethod
    def decode(cls, data: bytes, offset: int) -> "CompositeCommand":
        rect, offset = _unpack_rect(data, offset)
        _decode_need(data, offset, _U32.size, "COMPOSITE metadata")
        (length,) = _U32.unpack_from(data, offset)
        start = offset + _U32.size
        _decode_need(data, start, length, "COMPOSITE payload")
        pixels = compression.png_decompress(data[start : start + length])
        if pixels.shape != (rect.height, rect.width, 4):
            raise ValueError(
                f"COMPOSITE payload decompressed to {pixels.shape}, "
                f"rect is {rect!r}")
        cmd = cls(rect, pixels)
        return cmd

    def apply(self, fb) -> None:
        fb.composite(self.dest, self.pixels)


class VideoFrameCommand(Command):
    """One YV12 video frame presented to a screen rectangle.

    Video frames ride the same delivery pipeline as display commands so
    that the client buffer's eviction semantics give frame dropping
    under congestion for free: a newer frame at the same destination
    completely overwrites an older one that has not yet been sent.
    """

    kind = "vframe"
    type_id = 7
    overwrite_class = OverwriteClass.COMPLETE

    PIXEL_FORMATS = ("YV12", "YUY2")

    def __init__(self, stream_id: int, dest: Rect, src_width: int,
                 src_height: int, yuv_bytes: bytes, frame_no: int = 0,
                 pixel_format: str = "YV12"):
        super().__init__(dest)
        from ..video import yuv as yuvmod

        if pixel_format not in self.PIXEL_FORMATS:
            raise ValueError(f"unknown pixel format {pixel_format!r}")
        if src_width <= 0 or src_height <= 0:
            raise ValueError("VFRAME source dimensions must be positive")
        expected = yuvmod.frame_size(pixel_format, src_width, src_height)
        if len(yuv_bytes) != expected:
            raise ValueError(
                f"{pixel_format} payload is {len(yuv_bytes)} bytes, "
                f"expected {expected}"
            )
        self.stream_id = stream_id
        self.src_width = src_width
        self.src_height = src_height
        self.yuv_bytes = yuv_bytes
        self.frame_no = frame_no
        self.pixel_format = pixel_format

    def translated(self, dx: int, dy: int) -> "VideoFrameCommand":
        return VideoFrameCommand(self.stream_id, self.dest.translate(dx, dy),
                                 self.src_width, self.src_height,
                                 self.yuv_bytes, self.frame_no,
                                 self.pixel_format)

    def clipped(self, rects: Sequence[Rect]) -> List[Command]:
        # COMPLETE commands are never partially evicted; clipping keeps
        # the whole frame when any part is requested.
        for r in rects:
            if r.intersect(self.dest):
                return [self]
        return []

    def encode(self) -> bytes:
        fmt_id = self.PIXEL_FORMATS.index(self.pixel_format)
        return (_HEADER.pack(self.type_id, *self.dest.as_tuple())
                + _VFRAME_META.pack(self.stream_id, self.frame_no,
                                    fmt_id, self.src_width, self.src_height,
                                    len(self.yuv_bytes))
                + self.yuv_bytes)

    @classmethod
    def decode(cls, data: bytes, offset: int) -> "VideoFrameCommand":
        rect, offset = _unpack_rect(data, offset)
        _decode_need(data, offset, _VFRAME_META.size, "VFRAME metadata")
        stream_id, frame_no, fmt_id, sw, sh, length = (
            _VFRAME_META.unpack_from(data, offset))
        offset += _VFRAME_META.size
        if fmt_id >= len(cls.PIXEL_FORMATS):
            raise ValueError(f"unknown VFRAME pixel format id {fmt_id}")
        _decode_need(data, offset, length, "VFRAME payload")
        return cls(stream_id, rect, sw, sh, data[offset : offset + length],
                   frame_no, cls.PIXEL_FORMATS[fmt_id])

    def apply(self, fb) -> None:
        from ..video import yuv as yuvmod

        rgba = yuvmod.decode_frame(self.pixel_format, self.yuv_bytes,
                                   self.src_width, self.src_height)
        fb.put_pixels(self.dest, yuvmod.scale_rgb(
            rgba, self.dest.width, self.dest.height))


COMMAND_TYPES = {
    cls.type_id: cls
    for cls in (RawCommand, CopyCommand, SFillCommand, PFillCommand,
                BitmapCommand, CompositeCommand, VideoFrameCommand)
}


def decode_command(data: bytes, offset: int = 0) -> Command:
    """Decode one command from *data* starting at *offset*."""
    type_id = data[offset]
    try:
        cls = COMMAND_TYPES[type_id]
    except KeyError:
        raise ValueError(f"unknown command type {type_id}") from None
    return cls.decode(data, offset + 1)
