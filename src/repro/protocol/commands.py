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

**Wire layout.**  Each command declares its header rows under
:func:`~repro.protocol.schema.wire_type` (id, name, direction, paper
section; the docstring's first paragraph is its reference summary) and
the schema packs and bounds-checks them; ``to_rows`` hands the rows
out, and ``from_rows`` — the payload kernel: DEFLATE, bit unpacking,
the numpy views — builds the command from the parsed row.
"""

from __future__ import annotations

from enum import Enum
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..codec import Encoding
from ..region import Rect, Region
from . import compression
from .schema import (FieldRangeError, TruncatedPayloadError, blob, choice,
                     flag, rect16, rest, rgba, sized, u8, u16, u32, wire_type)

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


class OverwriteClass(Enum):
    """How a command overwrites and is overwritten (Section 4)."""

    PARTIAL = "partial"
    COMPLETE = "complete"
    TRANSPARENT = "transparent"


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
        """Exact bytes this command occupies on the wire (memoized):
        its type byte plus the frame payload."""
        size = self._wire_size
        if size is None:
            size = self._wire_size = 1 + len(self.encode_payload())
        return size

    def split(self, max_bytes: int, capacity: int
              ) -> Tuple["Command", Optional["Command"]]:
        """Break off a prefix of at most *max_bytes* for non-blocking
        flushing; returns (head, remainder-or-None).

        Commands that cannot be usefully split, or would rather wait for
        room that a socket holding *capacity* bytes when drained can give,
        return themselves whole — the flush layer ships them once it has.
        """
        return self, None

    # -- wire format ----------------------------------------------------------

    def to_rows(self) -> tuple:
        """One value per declared row, in wire order."""
        raise NotImplementedError

    @classmethod
    def from_rows(cls, *row) -> "Command":
        """The payload kernel: build the command from its parsed row."""
        raise NotImplementedError

    def encode(self) -> bytes:
        """Type byte + frame payload (a frame minus its length word)."""
        return bytes((self.type_id,)) + self.encode_payload()

    def apply(self, fb) -> None:
        """Execute the command against a client framebuffer."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.dest!r})"


def _collected(payload):
    """The bytes of a RAW or COMPOSITE payload cell (None while nothing
    was encoded).  A :class:`~repro.protocol.compression.PngJob` is
    shared by a prepared command and every clone handed to a receiver;
    the first to read it finishes it through ``png_compress``, on this
    thread, and the others take the bytes it left."""
    if type(payload) is not compression.PngJob:
        return payload
    if payload.payload is None:
        return compression.png_compress(payload)
    return payload.payload


@wire_type("RAW", 1, "s->c", "3/Table 1")
class RawCommand(Command):
    """Display raw pixel data at a given location (Table 1); the
    last-resort command and the only one that may be compressed.  The
    encoding byte is a bounded enum (<= max_raw_encoding) naming how
    the payload is packed: 0 raw rows, 1 PNG-model (the paper's
    choice), 2 RLE, 3 JPEG-style lossy; see the encoding ladder below.

    ``encoding`` is one of the :class:`~repro.codec.Encoding` values;
    the payload is encoded lazily and cached.  A PNG payload carries
    RGB rows when every alpha byte of the block is 255
    (:func:`~repro.protocol.compression.png_channels`) and decodes with
    alpha 255.
    """

    kind = "raw"
    overwrite_class = OverwriteClass.PARTIAL

    rect = rect16()
    encoding = u8(0, "max_raw_encoding")
    payload = sized(max="max_frame_bytes")

    def __init__(self, dest: Rect, pixels: np.ndarray,
                 encoding: Encoding = Encoding.PNG):
        pixels = np.ascontiguousarray(pixels, dtype=np.uint8)
        if pixels.shape != (dest.height, dest.width, 4):
            raise ValueError(
                f"pixels {pixels.shape} do not match {dest!r}"
            )
        self._stack(dest, [pixels], encoding)

    def _stack(self, dest: Rect, blocks: List[np.ndarray],
               encoding: Encoding) -> "RawCommand":
        """Initialise over checked row *blocks*, joined on first read."""
        Command.__init__(self, dest)
        self._blocks = blocks
        self.encoding = Encoding(encoding)
        self._payload = None  # bytes, or a compression.PngJob
        # Estimated wire size for scheduling, set when this command is
        # the remainder of a row-granular split: avoids recompressing
        # the whole tail on every flush period just to know its queue.
        # (A split between row bands hands the remainder its payload.)
        self._size_hint: Optional[int] = None
        return self

    @property
    def pixels(self) -> np.ndarray:
        if len(self._blocks) > 1:
            self._blocks = [np.concatenate(self._blocks)]
        return self._blocks[0]

    def with_encoding(self, encoding) -> "RawCommand":
        """This command under another encoding (fresh payload memo)."""
        encoding = Encoding(encoding)
        if encoding is self.encoding:
            return self
        cmd = RawCommand(self.dest, self.pixels, encoding)
        cmd.seq = self.seq
        cmd.realtime = self.realtime
        cmd.sched_floor = self.sched_floor
        return cmd

    def begin_payload(self) -> None:
        """Start DEFLATing a PNG payload beside the caller (the prepare
        stage's call); :meth:`_encoded_payload` collects it."""
        if self._payload is None and self.encoding is Encoding.PNG:
            self._payload = compression.PngJob(self.pixels,
                                               rgb_if_opaque=True)

    def _encoded_payload(self) -> bytes:
        payload = _collected(self._payload)
        if payload is None:
            if self.encoding is Encoding.PNG:
                payload = compression.png_compress(
                    compression.png_channels(self.pixels))
            elif self.encoding is Encoding.RLE:
                payload = compression.rle_compress(self.pixels)
            elif self.encoding is Encoding.LOSSY:
                payload = compression.lossy_compress(self.pixels)
            else:
                payload = self.pixels.tobytes()
        self._payload = payload
        return payload

    def _estimate(self) -> Optional[int]:
        """A split remainder's scheduling estimate while it has no
        payload; not cached, so the exact size takes over once the
        payload exists."""
        return self._size_hint if self._payload is None else None

    def wire_size(self) -> int:
        size = self._wire_size
        if size is None:
            size = self._estimate()
            if size is None:
                size = super().wire_size()
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
        # Vertical continuation (scan-line chunks of one image): keep
        # the blocks, so dozens of chunks are concatenated just once.
        if a.x == b.x and a.width == b.width and a.y2 == b.y:
            merged = Rect(a.x, a.y, a.width, a.height + b.height)
            return RawCommand.__new__(RawCommand)._stack(
                merged, self._blocks + later._blocks, self.encoding)
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
        overhead = 1 + self.schema.struct.size
        if self.encoding is Encoding.NONE:
            return overhead + rows.size
        if self.encoding is Encoding.RLE:
            return overhead + compression.rle_size(rows)
        return overhead + per_row * rows.shape[0]

    def split(self, max_bytes: int, capacity: int
              ) -> Tuple[Command, Optional[Command]]:
        # Split by scan lines so partially sent updates show whole rows.
        if self.dest.height <= 1:
            return self, None
        overhead = 1 + self.schema.struct.size  # type byte + header rows
        if self.wire_size() <= max_bytes:
            return self, None
        payload = (None if self._estimate() is not None
                   else self._encoded_payload())
        cut = compression.png_split(payload, self.pixels,
                                    max_bytes - overhead)
        if cut is not None:
            # A banded PNG payload with room for a band: both halves
            # are assembled from the bytes already DEFLATEd, so both
            # know their exact wire size and the head is sure to fit.
            rows, head_payload, rest_payload = cut
            head, rest = self._fragments(rows)
            head._payload, rest._payload = head_payload, rest_payload
            return head, rest
        first = compression.png_first_head(payload)
        if first is not None and first + overhead <= capacity:
            # Short of a band (or of the last band, whole), but the
            # socket holds one: wait for it.
            return self, None
        # Row-granular fallback (an unbanded payload, another encoding,
        # or a socket too small for a band): the head is sized from the
        # average bytes per row and compressed afresh, the rest carries
        # an estimate.
        per_row = max(1, (self.wire_size() - overhead) // self.dest.height)
        rows = max(1, (max_bytes - overhead) // per_row)
        head, rest = self._fragments(min(rows, self.dest.height - 1))
        rest._size_hint = self._tail_size_estimate(rest.pixels, per_row)
        return head, rest

    def _fragments(self, rows: int) -> Tuple["RawCommand", "RawCommand"]:
        """This command cut after *rows* scan lines, queue state kept."""
        top = Rect(self.dest.x, self.dest.y, self.dest.width, rows)
        bottom = Rect(self.dest.x, self.dest.y + rows, self.dest.width,
                      self.dest.height - rows)
        head = RawCommand(top, self.pixels[:rows], self.encoding)
        rest = RawCommand(bottom, self.pixels[rows:], self.encoding)
        head.seq = rest.seq = self.seq
        head.realtime = rest.realtime = self.realtime
        head.sched_floor = rest.sched_floor = self.sched_floor
        return head, rest

    def to_rows(self):
        return self.dest, self.encoding, self._encoded_payload()

    @classmethod
    def from_rows(cls, rect, encoding, payload) -> "RawCommand":
        if encoding == Encoding.PNG:
            pixels = compression.png_decompress(payload)
        elif encoding == Encoding.RLE:
            pixels = compression.rle_decompress(payload)
        elif encoding == Encoding.LOSSY:
            pixels = compression.lossy_decompress(payload)
        else:
            if len(payload) != rect.height * rect.width * 4:
                raise TruncatedPayloadError(
                    f"RAW payload is {len(payload)} bytes, rect {rect!r} "
                    f"needs {rect.height * rect.width * 4}")
            pixels = np.frombuffer(payload, dtype=np.uint8).reshape(
                rect.height, rect.width, 4)
        if pixels.shape != (rect.height, rect.width, 4):
            raise FieldRangeError(
                f"RAW payload decoded to {pixels.shape}, rect "
                f"is {rect!r}")
        cmd = cls(rect, pixels, encoding)
        cmd._payload = payload
        return cmd

    def apply(self, fb) -> None:
        fb.put_pixels(self.dest, self.pixels)


@wire_type("COPY", 2, "s->c", "3/Table 1")
class CopyCommand(Command):
    """Copy a framebuffer area to new coordinates (Table 1);
    accelerates scrolling and opaque window movement with no pixel
    resend: only src/dst coordinates travel on the wire."""

    kind = "copy"

    rect = rect16()
    src_x = u16()
    src_y = u16()

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

    def to_rows(self):
        return self.dest, self.src_x, self.src_y

    @classmethod
    def from_rows(cls, rect, src_x, src_y) -> "CopyCommand":
        return cls(src_x, src_y, rect)

    def apply(self, fb) -> None:
        fb.copy_area(self.src_rect, self.dest.x, self.dest.y)


@wire_type("SFILL", 3, "s->c", "3/Table 1")
class SFillCommand(Command):
    """Fill an area with a single colour (Table 1)."""

    kind = "sfill"
    overwrite_class = OverwriteClass.COMPLETE

    rect = rect16()
    color = rgba()

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

    def to_rows(self):
        return self.dest, self.color

    @classmethod
    def from_rows(cls, rect, color) -> "SFillCommand":
        return cls(rect, color)

    def apply(self, fb) -> None:
        fb.fill_rect(self.dest, self.color)


@wire_type("PFILL", 4, "s->c", "3/Table 1")
class PFillCommand(Command):
    """Tile an area with a pixel pattern (Table 1); the tile travels
    once, its origin relative to the rect."""

    kind = "pfill"
    overwrite_class = OverwriteClass.PARTIAL

    rect = rect16()
    tile_h = u8(1, 255)
    tile_w = u8(1, 255)
    origin_y = u8()
    origin_x = u8()
    tile = blob(size=("tile_h", "tile_w", 4))

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

    def to_rows(self):
        th, tw = self.tile.shape[0], self.tile.shape[1]
        # Origin is transmitted relative to the dest rect, so it always
        # fits in a tile-sized offset.
        ox = (self.origin[0] - self.dest.x) % tw
        oy = (self.origin[1] - self.dest.y) % th
        return self.dest, th, tw, oy, ox, self.tile.tobytes()

    @classmethod
    def from_rows(cls, rect, th, tw, oy, ox, tile) -> "PFillCommand":
        tile = np.frombuffer(tile, dtype=np.uint8).reshape(th, tw, 4)
        # Reconstruct an absolute origin equivalent to the relative one.
        return cls(rect, tile, (rect.x + ox - tw, rect.y + oy - th))

    def apply(self, fb) -> None:
        fb.tile_rect(self.dest, self.tile, self.origin)


@wire_type("BITMAP", 5, "s->c", "3/Table 1")
class BitmapCommand(Command):
    """Fill a region through a 1-bit stipple with fg (and optional bg)
    colours (Table 1); transparent stipples carry glyph text.  The
    mask is ``ceil(w/8)*h`` bytes, rows packed MSB first.

    With a background colour the fill is opaque (partial class); without
    one the zero bits leave existing content intact, making the command
    transparent — this is how glyph text travels.
    """

    kind = "bitmap"

    rect = rect16()
    fg = rgba()
    has_bg = flag()
    bg = rgba()
    mask = rest(max="max_frame_bytes")

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

    def to_rows(self):
        has_bg = self.bg is not None
        return (self.dest, self.fg, has_bg, self.bg if has_bg else (0, 0, 0, 0),
                np.packbits(self.mask, axis=1).tobytes())

    @classmethod
    def from_rows(cls, rect, fg, has_bg, bg, mask) -> "BitmapCommand":
        row_bytes = (rect.width + 7) // 8
        if len(mask) != row_bytes * rect.height:
            raise TruncatedPayloadError(
                f"BITMAP mask is {len(mask)} bytes, rect {rect!r} needs "
                f"{row_bytes * rect.height}")
        packed = np.frombuffer(mask, dtype=np.uint8).reshape(
            rect.height, row_bytes)
        mask = np.unpackbits(packed, axis=1)[:, : rect.width].astype(bool)
        return cls(rect, mask, fg, bg if has_bg else None)

    def apply(self, fb) -> None:
        fb.stipple_rect(self.dest, self.mask, self.fg, self.bg)


@wire_type("COMPOSITE", 6, "s->c", "3 (alpha support)")
class CompositeCommand(Command):
    """Porter-Duff 'over' blend of an RGBA block (anti-aliased text,
    translucency); payload compressed like RAW.

    Not one of the five Table 1 commands, but required by THINC's 24-bit
    + alpha design for graphics compositing (Section 3): anti-aliased
    text and translucent UI travel as transparent commands.
    """

    kind = "composite"
    overwrite_class = OverwriteClass.TRANSPARENT

    rect = rect16()
    payload = sized(max="max_frame_bytes")

    def __init__(self, dest: Rect, pixels: np.ndarray):
        super().__init__(dest)
        pixels = np.ascontiguousarray(pixels, dtype=np.uint8)
        if pixels.shape != (dest.height, dest.width, 4):
            raise ValueError(f"pixels {pixels.shape} do not match {dest!r}")
        self.pixels = pixels
        self._payload = None  # bytes, or a compression.PngJob

    def begin_payload(self) -> None:
        """Start DEFLATing the payload beside the caller (the prepare
        stage's call); :meth:`_encoded_payload` collects it."""
        if self._payload is None:
            self._payload = compression.PngJob(self.pixels,
                                               rgb_if_opaque=False)

    def _encoded_payload(self) -> bytes:
        payload = _collected(self._payload)
        if payload is None:
            payload = compression.png_compress(self.pixels)
        self._payload = payload
        return payload

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

    def to_rows(self):
        return self.dest, self._encoded_payload()

    @classmethod
    def from_rows(cls, rect, payload) -> "CompositeCommand":
        pixels = compression.png_decompress(payload)
        if pixels.shape != (rect.height, rect.width, 4):
            raise FieldRangeError(
                f"COMPOSITE payload decompressed to {pixels.shape}, "
                f"rect is {rect!r}")
        return cls(rect, pixels)

    def apply(self, fb) -> None:
        fb.composite(self.dest, self.pixels)


@wire_type("VFRAME", 7, "s->c", "4.2")
class VideoFrameCommand(Command):
    """One video frame in a YUV wire format, self-contained (geometry
    and format ride along so frames survive stream control reordering
    and drops).

    Video frames ride the same delivery pipeline as display commands so
    that the client buffer's eviction semantics give frame dropping
    under congestion for free: a newer frame at the same destination
    completely overwrites an older one that has not yet been sent.
    """

    kind = "vframe"
    overwrite_class = OverwriteClass.COMPLETE

    PIXEL_FORMATS = ("YV12", "YUY2")

    rect = rect16()
    stream_id = u16()
    frame_no = u32()
    pixel_format = choice(PIXEL_FORMATS)
    src_width = u16(1)
    src_height = u16(1)
    yuv = sized(max="max_frame_bytes")

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

    def to_rows(self):
        return (self.dest, self.stream_id, self.frame_no, self.pixel_format,
                self.src_width, self.src_height, self.yuv_bytes)

    @classmethod
    def from_rows(cls, rect, stream_id, frame_no, pixel_format, src_width,
                  src_height, yuv) -> "VideoFrameCommand":
        return cls(stream_id, rect, src_width, src_height, yuv, frame_no,
                   pixel_format)

    def apply(self, fb) -> None:
        fb.present_video(self.dest, self.pixel_format, self.yuv_bytes,
                         self.src_width, self.src_height)


COMMAND_TYPES = {
    cls.type_id: cls
    for cls in (RawCommand, CopyCommand, SFillCommand, PFillCommand,
                BitmapCommand, CompositeCommand, VideoFrameCommand)
}


def decode_command(data: bytes) -> Command:
    """Decode one command from its :meth:`Command.encode` form."""
    try:
        cls = COMMAND_TYPES[data[0]]
    except KeyError:
        raise ValueError(f"unknown command type {data[0]}") from None
    return cls.decode_payload(data[1:])
