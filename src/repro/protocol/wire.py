"""Wire format: message framing for the THINC protocol.

Every protocol message is framed as::

    +------+----------+-----------------+
    | type | length   | payload         |
    | u8   | u32 (BE) | `length` bytes  |
    +------+----------+-----------------+

Display commands (``repro.protocol.commands``) are one message family;
this module adds the stream-control and session messages: video stream
lifecycle (Section 4.2), audio chunks with server-side timestamps,
client input events, the client's viewport-size report that drives
server-side scaling (Section 6), and the initial screen geometry.

**Bounded decoding.**  Every message is one field table
(:mod:`repro.protocol.schema`) whose kinds carry their bounds
(``u16(1, "max_viewport_dim")``, ``rest(max="max_audio_chunk_bytes")``,
...): the control messages below are :func:`~repro.protocol.schema.
message` declarations, the display commands declare their header rows
in :mod:`.commands`.  The one compiled parser checks the payload
length, then every field against its declared range (the typed limits
in :mod:`repro.protocol.limits`), then the exact length of the
length-bearing field, then any cross-field ``check=`` validator —
*before* a value reaches a caller or a payload kernel — and raises a
:class:`ProtocolError` subclass.  A length-bearing field cannot be
declared without its bound.  What a command's payload kernel can still
raise (``zlib.error`` on a corrupt DEFLATE stream, a numpy or
constructor ``ValueError``) becomes a :class:`ProtocolError` at the
frame dispatcher, so ``except ProtocolError`` is the complete failure
surface of a malformed stream.

**Adding a message.**

1. Declare it: a control message here, as ``@message(NAME, next free
   id, direction, section)`` on a class whose body lists the fields in
   wire order; a display command in :mod:`.commands`, as
   ``@wire_type(...)`` on a ``Command`` subclass that lists its header
   rows and maps them with ``to_rows``/``from_rows``.  Either way the
   docstring's first paragraph is the reference summary.
2. Handle it where its direction says it arrives (``THINCServer.
   handle_client_message``, ``THINCClient``, the coordinator).
3. ``make protocol-doc contracts-doc``.

Nothing in :mod:`.spec`, the direction sets, the property-test
strategies or the docs generators needs touching: they read the
declaration (``tests/protocol/test_wire_golden.py`` wants two pinned
instances of the new class, and ``make analyze`` wants the handler).
"""

from __future__ import annotations

import struct
import zlib
from typing import Collection, Optional, Union

from .commands import Command
from .limits import LIMITS
from .schema import (REGISTRY, ChecksumError, FieldRangeError,
                     FrameTooLargeError, ProtocolError,
                     TruncatedPayloadError, blob, choice, f64, flag,
                     message, rect16, rest, tag, u8, u16, u32, u64)

# The 24 message classes join ``__all__`` from the registry, below.
__all__ = [
    "StreamParser", "Message", "ProtocolError", "ChecksumError",
    "TruncatedPayloadError", "FrameTooLargeError", "FieldRangeError",
    "FRAME_OVERHEAD", "CHECKED_OVERHEAD",
    "SUBSCRIBE_MIRROR", "SUBSCRIBE_TILE",
    "RESYNC_FRESH", "RESYNC_REPLAY", "RESYNC_SNAPSHOT",
    "DENY_SERVER_FULL", "DENY_SESSION_BUDGET", "DENY_QUARANTINED",
    "frame_message", "parse_messages", "encode_message", "wrap_checked",
]

_FRAME = struct.Struct(">BI")
_U32 = struct.Struct(">I")  # CHECKED's seq word, as its CRC covers it

# Bytes the frame header adds around every message payload.  Exposed so
# flush-time size arithmetic (repro.core.delivery) can never drift from
# the actual framing format.
FRAME_OVERHEAD = _FRAME.size

# Extra bytes a CHECKED wrapper adds around an already-framed message:
# its own [type u8][len u32] header plus crc32[u32] and seq[u32].
CHECKED_OVERHEAD = _FRAME.size + 2 * _U32.size
# A CHECKED frame's declared length less its inner frame's.
_CHECKED_LEN = 2 * _U32.size + _FRAME.size

_INPUT_KINDS = ("mouse-move", "mouse-click", "key")

# Subscription modes carried by SubscribeMessage.
SUBSCRIBE_MIRROR = 0  # receive the full desktop (scaled to viewport)
SUBSCRIBE_TILE = 1  # own one tile of a cols x rows display wall

# Resync kinds carried by ReconnectAcceptMessage.
RESYNC_FRESH = 0  # brand-new session: full state follows anyway
RESYNC_REPLAY = 1  # unacked frames replayed from the session log
RESYNC_SNAPSHOT = 2  # log/queue was dropped: full-screen RAW refresh

# Admission-denial reasons carried by AttachDeniedMessage.
DENY_SERVER_FULL = 0  # global session or byte budget exhausted
DENY_SESSION_BUDGET = 1  # this session exceeded its resource budget
DENY_QUARANTINED = 2  # the session was quarantined for protocol abuse


# Control messages, one declaration each.  Type ids 1..7 belong to the
# display commands (commands.py); the registry refuses a collision.

@message("VSETUP", 16, "s->c", "4.2")
class VideoSetupMessage:
    """Open a video stream on the client (format + geometry)."""

    stream_id = u16()
    pixel_format = tag(max="max_pixel_format_len")
    src_width = u16(1, "max_viewport_dim")
    src_height = u16(1, "max_viewport_dim")
    dst_rect = rect16()


@message("VMOVE", 17, "s->c", "4.2")
class VideoMoveMessage:
    """Move/resize a stream's output window."""

    stream_id = u16()
    dst_rect = rect16()


@message("VTEARDOWN", 18, "s->c", "4.2")
class VideoTeardownMessage:
    """Close a video stream."""

    stream_id = u16()


@message("AUDIO", 19, "s->c", "4.2/7")
class AudioChunkMessage:
    """A block of PCM samples stamped with server playback time (A/V
    synchronisation, Section 4.2)."""

    timestamp = f64()
    samples = rest(max="max_audio_chunk_bytes")


@message("INPUT", 20, "c->s", "5")
class InputMessage:
    """Client-to-server user input; the server marks nearby updates
    real-time."""

    kind = choice(_INPUT_KINDS)
    x = u16()
    y = u16()
    time = f64()


@message("RESIZE", 21, "c->s", "6")
class ResizeMessage:
    """Client reports its viewport size; enables server-side scaling."""

    width = u16(1, "max_viewport_dim")
    height = u16(1, "max_viewport_dim")


@message("CURSOR_IMAGE", 23, "s->c", "7 (client simplicity)")
class CursorImageMessage:
    """Server pushes a new cursor shape; the client tracks position
    locally for zero-latency pointer feedback (hardware cursor model).
    """

    hot_x = u16()
    hot_y = u16()
    width = u16(1, "max_cursor_dim")
    height = u16(1, "max_cursor_dim")
    rgba = blob(size=("width", "height", 4))  # straight-alpha pixels

    def __post_init__(self):
        if len(self.rgba) != self.width * self.height * 4:
            raise ValueError("cursor pixel payload does not match size")


@message("REFRESH", 24, "c->s", "(extension)")
class RefreshRequestMessage:
    """Client asks the server to resend a screen region after local
    state loss.

    Sent after a suspend/resume or a corrupted blit — the server
    answers with RAW content for the region, in *server* coordinates
    (the client converts from its viewport).  The server clamps the
    rect to its framebuffer; the wire layer only checks the layout.
    """

    rect = rect16()


@message("ZOOM", 25, "c->s", "6")
class ZoomRequestMessage:
    """Client zooms its viewport onto a desktop region; an empty rect
    zooms back out to the full desktop.  The server rescales
    subsequent updates and pushes a refresh of the view.

    Section 6: from the zoomed-out view of the whole desktop, the user
    zooms in on a section; the server then scales updates from that
    region and pushes a refresh with enough content for the new level.
    """

    rect = rect16()


@message("SCREEN_INIT", 22, "s->c", "7")
class ScreenInitMessage:
    """Server announces the session's framebuffer geometry (sent on
    attach and viewport changes)."""

    width = u16(1, "max_viewport_dim")
    height = u16(1, "max_viewport_dim")


def _checked_crc(seq: int, inner: bytes) -> int:
    """CRC-32 over ``seq[u32] + inner``, as a CHECKED frame carries it."""
    return zlib.crc32(inner, zlib.crc32(_U32.pack(seq)))


def _check_checked(row) -> None:
    if len(row.inner) < _FRAME.size:
        raise TruncatedPayloadError(
            f"CHECKED frame of {len(row.inner)} inner bytes cannot hold "
            f"an inner frame")
    if _checked_crc(row.seq, row.inner) != row.crc32:
        raise ChecksumError(
            f"CHECKED frame failed CRC over {len(row.inner)} inner bytes")
    # Reject nesting before recursing: a stream of CHECKED-in-CHECKED
    # wrappers costs 13 bytes per level, so a single large frame could
    # otherwise drive the decoder thousands of stack frames deep and
    # surface as RecursionError, not ProtocolError.
    if row.inner[0] == CheckedFrame.type_id:
        raise FieldRangeError("CHECKED frames may not nest")


@message("CHECKED", 26, "s->c", "(extension: resilience)",
         check=_check_checked)
class CheckedFrame:
    """Integrity-checked wrapper around one framed message, emitted
    around every server-to-client message of a session accepted through
    the resilience plane.  CRC-32 over seq+inner turns wire corruption
    into a :class:`ChecksumError` (resync, not crash); the sequence
    number drives cumulative acks and duplicate-skip after resync.  Its
    declared length is 13 more than its inner frame's; a stream parser
    checks that once 18 bytes are buffered, so a corrupted length fails
    there instead of waiting on a phantom frame.
    """

    seq: int
    message: "Message"

    crc32 = u32()
    seq = u32()
    inner = rest(max="max_frame_bytes")  # exactly one framed message

    def to_rows(self):
        inner = encode_message(self.message)
        return _checked_crc(self.seq, inner), self.seq, inner

    @classmethod
    def from_rows(cls, crc32, seq, inner) -> "CheckedFrame":
        messages = parse_messages(inner)
        if len(messages) != 1:
            raise ProtocolError(
                f"CHECKED frame wraps {len(messages)} messages, expected 1")
        return cls(seq, messages[0])


@message("HEARTBEAT", 27, "c<->s", "(extension: resilience)")
class HeartbeatMessage:
    """Periodic liveness beacon carrying a cumulative ack: ``last_seq``
    is the highest CHECKED sequence number the sender has applied (0
    when none), which the server uses to prune its replay log.  Either
    side may send it; the reference client does.

    ``time`` is the sender's clock, for diagnostics.
    """

    last_seq = u32()
    time = f64()


@message("RECONNECT_REQ", 28, "c->s", "(extension: resilience)")
class ReconnectRequestMessage:
    """First message on a dialled connection to the resilience plane:
    resume session ``token`` (0 requests a fresh session) from CHECKED
    sequence ``last_seq``, the highest the client applied, from which
    the server picks the resync starting point."""

    token = u32()
    last_seq = u32()


@message("RECONNECT_ACCEPT", 29, "s->c", "(extension: resilience)")
class ReconnectAcceptMessage:
    """The plane accepts an attach/reconnect and announces the resync
    mode (0 fresh, 1 replay of unacked frames, 2 full-screen RAW
    snapshot); sent in the clear before the (possibly re-keyed)
    session stream starts."""

    token = u32()
    resync = choice((RESYNC_FRESH, RESYNC_REPLAY, RESYNC_SNAPSHOT))


@message("RECONNECT_DENIED", 30, "s->c", "(extension: resilience)")
class ReconnectDeniedMessage:
    """Reconnect backoff push-back: retry no sooner than
    ``retry_after`` seconds from now."""

    retry_after = f64(0.0, "max_retry_after")


@message("ATTACH_DENIED", 31, "s->c", "(extension: governance)")
class AttachDeniedMessage:
    """Typed admission push-back on the plain attach path: the
    server's governor is out of global budget (reason 0), the session
    exhausted its own budget (1), or the session was quarantined for
    protocol abuse (2); retry no sooner than ``retry_after`` seconds
    from now.

    The governor rejects an ``attach_client`` past the global admission
    budget (or evicts a session for exhausting its own) by writing this
    message before releasing the connection, so a well-behaved client
    learns *why* it was turned away and when a retry is worth the dial
    instead of diagnosing a silent hangup.
    """

    reason = choice((DENY_SERVER_FULL, DENY_SESSION_BUDGET,
                     DENY_QUARANTINED))
    retry_after = f64(0.0, "max_retry_after")


@message("SESSION_TRANSFER", 32, "s->s", "(extension: cluster)")
class SessionTransferMessage:
    """A frozen session crossing the shard fabric during live
    migration: ``token`` rides in the clear so the fabric can route and
    account a transfer without decoding the blob; ``state`` is the
    serialized ``FrozenSession`` surface (journal, queue, scaler view,
    sequence marks).  Never valid on a client-facing stream: the
    uplink and downlink parsers both reject it.

    ``state`` stays opaque at this layer so the wire format needs no
    knowledge of the server core (:class:`~repro.core.session_unit.
    FrozenSession`).
    """

    token = u32()
    state = rest(max="max_transfer_bytes")


@message("MIGRATE_BEGIN", 33, "s->s", "(extension: cluster)")
class MigrateBeginMessage:
    """Coordinator orders the owning shard to freeze and hand off a
    session to ``target_shard``: the start-of-migration mark on the
    fabric, opening the bounded migration detach window."""

    token = u32()
    target_shard = u16(0, "max_shard_id")


@message("MIGRATE_COMPLETE", 34, "s->s", "(extension: cluster)")
class MigrateCompleteMessage:
    """Target shard acknowledges it thawed the session and owns the
    token; the coordinator flips its routing on receipt, so the
    client's next redial reaches the new owner."""

    token = u32()
    shard = u16(0, "max_shard_id")


@message("SHARD_ADMISSION", 35, "s->s", "(extension: cluster)")
class ShardAdmissionReportMessage:
    """A shard reports its governor's admission posture upward to the
    coordinator, for placement and overflow routing: the governor's
    own gauges — live session count, total buffered display bytes, and
    whether a fresh attach would currently be admitted."""

    shard = u16(0, "max_shard_id")
    sessions = u32()
    queue_bytes = u64()
    admitting = flag()


def _check_subscribe(row) -> None:
    cols, rows, index = row.cols, row.rows, row.index
    if row.mode == SUBSCRIBE_MIRROR:
        if cols or rows or index:
            raise FieldRangeError(
                "SUBSCRIBE mirror mode carries a tile grid "
                f"({cols}x{rows} index {index})")
    elif cols < 1 or rows < 1:
        raise FieldRangeError(f"SUBSCRIBE tile grid {cols}x{rows} is empty")
    elif cols * rows > LIMITS.max_wall_tiles:
        raise FieldRangeError(
            f"SUBSCRIBE tile grid {cols}x{rows} exceeds "
            f"{LIMITS.max_wall_tiles} tiles")
    elif index >= cols * rows:
        raise FieldRangeError(
            f"SUBSCRIBE tile index {index} outside {cols}x{rows} grid")


@message("SUBSCRIBE", 36, "c->s", "(extension: fanout)",
         check=_check_subscribe)
class SubscribeMessage:
    """Client joins the broadcast fan-out plane: mode 0 mirrors the
    whole desktop (resampled into the session viewport), mode 1 claims
    tile ``index`` of a ``cols x rows`` partition of the virtual
    display wall.  Grid fields must be zero in mirror mode; a tile
    grid holds at most ``max_wall_tiles`` tiles, so a hostile client
    cannot demand a degenerate one-pixel carving.  The server answers
    a tile claim with TILE_ASSIGN plus the usual geometry handshake.

    ``mode`` is :data:`SUBSCRIBE_MIRROR` or :data:`SUBSCRIBE_TILE`.
    """

    mode = choice((SUBSCRIBE_MIRROR, SUBSCRIBE_TILE))
    cols = u16(default=0)
    rows = u16(default=0)
    index = u32(default=0)


def _check_tile_assign(row) -> None:
    rect = row.rect
    if rect.empty:
        raise FieldRangeError("TILE_ASSIGN tile is empty")
    if rect.x2 > row.wall_w or rect.y2 > row.wall_h:
        raise FieldRangeError(
            f"TILE_ASSIGN tile {rect} leaves the "
            f"{row.wall_w}x{row.wall_h} wall")


@message("TILE_ASSIGN", 37, "s->c", "(extension: fanout)",
         check=_check_tile_assign)
class TileAssignMessage:
    """Server grants a tile-wall subscriber its sub-rectangle: the
    virtual wall's full extent (the server framebuffer) plus the tile
    ``rect`` in wall coordinates, which must lie inside the wall —
    everything a client needs to place its panel and map local pixels
    back onto the wall.  The session's stream then carries only
    content clipped to that tile, at 1:1 scale."""

    wall_w = u16(1, "max_viewport_dim")
    wall_h = u16(1, "max_viewport_dim")
    rect = rect16()


@message("VIDEO_QUALITY", 38, "s->c", "(extension: qos)")
class VideoQualityMessage:
    """Server announces a video stream's negotiated quality rung
    whenever the QoS degradation ladder moves (a healthy link never
    sees one), alongside VSETUP for streams opened while degraded.
    The descriptor is everything the client needs to interpret what it
    will receive: ``fps_divisor`` (only every Nth source frame is
    shipped), ``scale_shift`` (frames arrive at source dimensions
    right-shifted this much and are scaled back by the overlay
    hardware), and ``qstep`` (the chroma/quantise squeeze applied at
    the bottom rung; 0 means lossless YV12)."""

    stream_id = u16()
    rung = u8(0, "max_qos_rung")
    fps_divisor = u8(1, "max_fps_divisor", default=1)
    scale_shift = u8(0, "max_scale_shift", default=0)
    qstep = u8(0, "max_qos_qstep", default=0)


@message("QOS_REPORT", 39, "c->s", "(extension: qos)")
class QosReportMessage:
    """Client feeds its delivered A/V quality back to the server:
    frames actually presented plus the Section 8.2 playback/audio
    quality fractions and the A/V sync skew, computed client-side over
    one stream's arrival records.  The QoS plane uses them to confirm
    a recovery took on the client (the byte counters alone say the
    link drained, not that the client kept up)."""

    stream_id = u16()
    frames_received = u32()
    playback_quality = f64(0.0, 1.0, default=1.0)
    audio_quality = f64(0.0, 1.0, default=1.0)
    av_skew = f64(0.0, "max_av_skew", default=0.0)


# Read off the registry: the control classes, the message union and
# the public class names.
_CONTROL_TYPES = {type_id: cls for type_id, cls in REGISTRY.items()
                  if not issubclass(cls, Command)}
Message = Union[(Command, *_CONTROL_TYPES.values())]
__all__ += [cls.__name__ for cls in _CONTROL_TYPES.values()]


def encode_message(msg: Message) -> bytes:
    """Frame one message (display command or control message)."""
    return frame_message(msg.type_id, msg.encode_payload())


def frame_message(type_id: int, payload: bytes) -> bytes:
    return _FRAME.pack(type_id, len(payload)) + payload


def wrap_checked(framed: bytes, seq: int) -> bytes:
    """Wrap one already-framed message in a CHECKED frame.

    Byte-identical to ``encode_message(CheckedFrame(seq, msg))`` when
    *framed* is ``encode_message(msg)``, but avoids re-encoding on the
    send path where the framed bytes already exist.
    """
    return frame_message(
        CheckedFrame.type_id,
        CheckedFrame.schema.pack(_checked_crc(seq, framed), seq, framed))


def _decode_frame(type_id: int, payload: bytes):
    """Decode one frame's payload, upholding the ProtocolError contract.

    The declared rows fail typed by construction; a display command's
    payload kernel can still fail with ``zlib.error`` on a corrupt
    DEFLATE stream or a numpy / constructor ``ValueError`` on an
    impossible shape — all of which become :class:`ProtocolError` here,
    so receivers have exactly one exception family to guard against.
    """
    cls = REGISTRY.get(type_id)
    if cls is None:
        raise ProtocolError(f"unknown message type {type_id}")
    try:
        msg = cls.decode_payload(payload)
    except ProtocolError:
        raise
    except (ValueError, KeyError, IndexError, OverflowError,
            struct.error, zlib.error) as exc:
        raise ProtocolError(
            f"malformed {cls.schema.name} payload: {exc}") from exc
    if isinstance(msg, Command):
        # The frame is the command's encoding: its wire size is known
        # without encoding it again.
        msg._wire_size = 1 + len(payload)
    return msg


def parse_messages(data: bytes):
    """Parse a byte stream into messages; raises ProtocolError on any
    truncation or malformed payload."""
    out = []
    offset = 0
    while offset < len(data):
        if offset + _FRAME.size > len(data):
            raise TruncatedPayloadError("truncated message frame")
        type_id, length = _FRAME.unpack_from(data, offset)
        offset += _FRAME.size
        if offset + length > len(data):
            raise TruncatedPayloadError("truncated message payload")
        payload = data[offset : offset + length]
        offset += length
        out.append(_decode_frame(type_id, payload))
    return out


class StreamParser:
    """Incremental message parser over an arbitrary byte-chunk stream.

    Network delivery hands the client data in transport-sized pieces
    that rarely align with message boundaries; the parser buffers the
    tail until a frame completes.

    ``max_frame`` bounds the length field a frame may declare: a
    corrupted header could otherwise announce a multi-gigabyte payload
    and silently stall the stream forever while the parser waits for
    bytes that will never come.  It defaults to the typed limit in
    :mod:`repro.protocol.limits`; pass ``None`` only for trusted
    in-process streams.  ``max_pending`` additionally bounds the bytes
    buffered while waiting for a frame to complete, and ``allowed``
    restricts the acceptable type ids (the server's uplink parser uses
    it to reject server-to-client message types a client has no
    business sending).
    """

    def __init__(self, max_frame: Optional[int] = LIMITS.max_frame_bytes,
                 max_pending: Optional[int] = None,
                 allowed: Optional[Collection[int]] = None) -> None:
        self._buffer = bytearray()
        self._need = 0  # buffered bytes the next frame completes at
        self.max_frame = max_frame
        self.max_pending = max_pending
        self.allowed = frozenset(allowed) if allowed is not None else None

    def feed(self, chunk: bytes):
        """Absorb a chunk and return the messages completed by it."""
        self._buffer.extend(chunk)
        # Short of what the pending (checked) frame needs, none completes.
        out = self._parse() if len(self._buffer) >= self._need else []
        if self.max_pending is not None and \
                len(self._buffer) > self.max_pending:
            raise FrameTooLargeError(
                f"{len(self._buffer)} bytes buffered awaiting a frame, "
                f"cap is {self.max_pending}")
        return out

    def _parse(self) -> list:
        """Consume complete frames; note what the next needs (0 on a raise)."""
        out = []
        offset = 0
        self._need = 0
        try:
            while True:
                end = offset + _FRAME.size
                if end > len(self._buffer):
                    break
                type_id, length = _FRAME.unpack_from(self._buffer, offset)
                if self.max_frame is not None and length > self.max_frame:
                    raise FrameTooLargeError(
                        f"frame declares {length} byte payload, cap is "
                        f"{self.max_frame} — corrupted length field")
                if self.allowed is not None and type_id not in self.allowed:
                    raise FieldRangeError(
                        f"message type {type_id} is not acceptable on "
                        f"this stream direction")
                if type_id == CheckedFrame.type_id and length >= _CHECKED_LEN:
                    # Its length must agree with its inner frame's, read
                    # 18 bytes in (a shorter frame fails at decode).
                    head = end + _CHECKED_LEN
                    if head > len(self._buffer):
                        end = head
                        break
                    inner = _U32.unpack_from(self._buffer, head - _U32.size)[0]
                    if length != _CHECKED_LEN + inner:
                        raise ChecksumError(
                            f"CHECKED frame declares {length} bytes around "
                            f"an inner frame of {inner}")
                end += length
                if end > len(self._buffer):
                    break
                payload = bytes(self._buffer[offset + _FRAME.size : end])
                out.append(_decode_frame(type_id, payload))
                offset = end
        finally:
            # Consume what parsed even when a later frame raises, so a
            # resilient receiver that resets on ProtocolError does not
            # re-parse (and re-apply) the messages that preceded it.
            del self._buffer[:offset]
        self._need = end - offset
        return out

    def reset(self) -> None:
        """Drop the buffered bytes, as after a frame that raised."""
        self._buffer.clear()
        self._need = 0

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting the rest of their frame."""
        return len(self._buffer)
