"""Session-as-a-unit: per-client server state with a serializable edge.

A :class:`SessionUnit` is everything the server holds for one client —
the scheduler-backed command buffer, the framing/encryption tail, the
control and audio queues, the flush machinery and the per-session
counters — behind an explicit state surface.  The surface has two
halves:

* **live half** — references into the owning shard's shared planes
  (event loop, prepare plane, governor) plus the transport endpoint;
  re-established whenever the unit lands on a host; and
* **frozen half** — :class:`FrozenSession`, the byte-serializable
  residue of the unit: geometry and view transform, sequencing marks,
  the resilience journal, the buffered command queue, pending resync /
  control frames and the counters.  ``freeze()`` captures it;
  ``THINCServer.thaw_session`` rebuilds a live unit from it on any
  shard sharing the simulation clock.

Freeze/thaw is the primitive under live migration in
:mod:`repro.cluster`: a frozen session crosses the shard fabric inside
a ``SESSION_TRANSFER`` frame, and the client reconnects through the
same detach/resync path it would use after a network fault — migration
is deliberately *not* a new recovery mechanism, just a new reason to
detach.  Commands already scheduled against the frozen unit (prepare
completions in flight) are forwarded to the thawed successor via
:meth:`SessionUnit.forward_to`, so no pixels are lost mid-migration.
"""

from __future__ import annotations

import struct
import zlib
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional, Tuple

from ..display.driver import InputEvent
from ..net.transport import Connection
from ..protocol import wire
from ..protocol.commands import Command
from ..protocol.limits import LIMITS
from ..protocol.rc4 import RC4
from ..protocol.schema import (FieldRangeError, FieldTable,
                               FrameTooLargeError, TruncatedPayloadError,
                               f64, rect16, rest, u8, u16, u32, u64)
from ..protocol.spec import SERVER_ACCEPTS
from ..region import Rect
from . import pipeline
from . import sanitizer as _sanitizer
from .delivery import ClientBuffer
from .governor import SessionMeter
from .resize import DisplayScaler

__all__ = ["SessionUnit", "FrozenSession", "FLUSH_INTERVAL",
           "NOT_SERIALIZED"]

FLUSH_INTERVAL = 0.002  # seconds between flush periods while backlogged

#: Mutable :class:`SessionUnit` attributes deliberately *absent* from
#: the :meth:`SessionUnit.freeze` surface, each with the reason it is
#: safe to drop across a migration.  THL204 in
#: :mod:`repro.analysis.contracts` fails the build when an attribute is
#: assigned on the unit but neither captured by ``freeze()`` nor listed
#: here — adding session state means deciding, explicitly, whether it
#: migrates.
NOT_SERIALIZED = {
    "server": "host binding; the thaw target supplies its own",
    "loop": "host binding; every shard shares the simulated clock",
    "_encrypt_key": "keys never cross the fabric; the reconnect "
                    "handshake re-keys on the target shard",
    "frame_stage": "holds the RC4 keystream position, which is "
                   "worthless after the re-key; rebuilt on thaw",
    "journal": "a callable installed by the target plane's adopt(), "
               "not data (the journalled frames themselves migrate)",
    "detached": "a frozen unit is detached by definition; thaw "
                "rebuilds the unit detached until the client redials",
    "quarantined": "governor verdicts are host-local; an abusive "
                   "session is evicted, never migrated",
    "meter": "governor budgets are per-host capacity, not session "
             "state; the target's governor starts a fresh meter and "
             "seeds its abuse tallies from the migrated stats",
    "qos_state": "hysteresis counters and poll clocks judge this "
                 "host's link; only the rung migrates, and the thawed "
                 "unit re-derives the rest from live polls",
    "_successor": "forwarding pointer only meaningful on the frozen "
                  "husk left behind on the source shard",
    "_audio": "audio is useless late (the paper sheds it first); a "
              "migration pause always exceeds its freshness window",
    "_audio_bytes": "gauge over _audio, which is dropped",
    "_control_bytes": "gauge over _control, recomputed on thaw",
    "_flush_scheduled": "transient event-loop bookkeeping; a detached "
                        "unit never flushes",
    "_parser": "uplink parse state dies with the severed connection; "
               "reset_parser() starts the successor clean",
}


class _SessionWriter:
    """The session's write-side proxy over the transport endpoint.

    Three concerns live here rather than in the framing stage so they
    happen only for bytes that actually reach the socket:

    * **encryption** — frames are plaintext until written (framing a
      split head that then fails the fit check must not consume RC4
      keystream, and journaled frames must be re-encryptable under a
      fresh key after a reconnect);
    * **sequencing** — resilient sessions wrap every outgoing frame in
      a CHECKED wrapper whose sequence number is assigned in *send*
      order, so the client's cumulative ack and the replay log agree
      byte-for-byte about what the client may have seen; and
    * **journaling** — each wrapped plaintext frame is handed to the
      resilience plane's per-session log before encryption.

    ``writable_bytes`` and ``capacity`` subtract the wrapper overhead so
    the flush stage's size arithmetic keeps working unchanged.
    """

    def __init__(self, session: "SessionUnit", sequenced: bool):
        self.session = session
        self.sequenced = sequenced
        self.overhead = wire.CHECKED_OVERHEAD if sequenced else 0
        self.last_seq = 0
        self.total_bytes = 0

    def _endpoint(self):
        return self.session.connection.down

    def writable_bytes(self) -> int:
        return max(0, self._endpoint().writable_bytes() - self.overhead)

    def capacity(self) -> int:
        return self._endpoint().send_buffer_limit - self.overhead

    def write(self, data: bytes) -> None:
        if self.sequenced:
            self.last_seq += 1
            data = wire.wrap_checked(data, self.last_seq)
            if self.session.journal is not None:
                self.session.journal(self.last_seq, data)
        self.total_bytes += len(data)
        self._endpoint().write(self.session.frame_stage.encrypt(data))

    def write_prewrapped(self, data: bytes) -> None:
        """Write an already-wrapped frame (resync replay): encrypt
        only — it carries its original sequence number and is already
        in the journal."""
        self.total_bytes += len(data)
        self._endpoint().write(self.session.frame_stage.encrypt(data))

    def prewrapped_writable(self) -> int:
        return self._endpoint().writable_bytes()


def _check_frozen(row) -> None:
    if row.view_rect.empty:
        raise FieldRangeError("frozen view rect is empty")
    if row.acked_seq > row.last_seq:
        raise FieldRangeError(
            f"frozen session acked seq {row.acked_seq} is past the last "
            f"one sent, {row.last_seq}")


#: The FrozenSession blob, version 2 (v2 appended the QoS ladder rung
#: after the counters): this fixed part, then four counted lists.
_FROZEN = FieldTable("frozen session", dict(
    version=u8(2, 2), token=u32(),
    viewport_w=u16(1, "max_viewport_dim"),
    viewport_h=u16(1, "max_viewport_dim"),
    view_rect=rect16(), flags=u8(0, 0x7F),  # bit i <-> _FLAGS[i]
    last_seq=u32(), acked_seq=u32(), pipe_tail=f64(),
    messages_sent=u32(), bytes_sent=u64(), flush_periods=u32(),
    audio_dropped=u32(), display_shed=u32(), uplink_dropped=u32(),
    wire_errors=u32(), cpu_time=f64(),  # ``stats``, under its keys
    qos_rung=u8(0, "max_qos_rung"),
    lists=rest(max="max_transfer_bytes")), check=_check_frozen)

_FLAGS = ("sequenced", "degraded", "shed_display", "log_dropped",
          "queue_dropped", "subscribed", "tile_mode")
_STATS = ("messages_sent", "bytes_sent", "flush_periods", "audio_dropped",
          "display_shed", "uplink_dropped", "wire_errors", "cpu_time")


def _pack_lists(journal, *plain) -> bytes:
    """Four counted lists, each ``count[u32]`` then its entries: the
    journal's as ``seq[u32] length[u32] bytes``, then commands, replay
    and control entries as ``length[u32] bytes``."""
    def word(value: int) -> bytes:
        return value.to_bytes(4, "big")

    out = [word(len(journal))]
    out += [word(seq) + word(len(data)) + data for seq, data in journal]
    for entries in plain:
        out.append(word(len(entries)))
        out += [word(len(data)) + data for data in entries]
    return b"".join(out)


def _take_lists(data: bytes) -> list:
    """Read :func:`_pack_lists` back: every count and length is held
    to the bytes actually present, and none may be left over."""
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(data):
            raise TruncatedPayloadError(
                f"frozen session list truncated at byte {pos}")
        pos += n
        return data[pos - n:pos]

    def word() -> int:
        return int.from_bytes(take(4), "big")

    lists = [tuple((word(), take(word())) for _ in range(word()))]
    lists += [tuple(take(word()) for _ in range(word())) for _ in range(3)]
    if pos != len(data):
        raise TruncatedPayloadError(
            f"{len(data) - pos} trailing bytes after frozen session")
    return lists


@dataclass(frozen=True)
class FrozenSession:
    """The serializable state surface of one :class:`SessionUnit`.

    Everything a peer shard needs to continue the session is here;
    everything that is not is deliberately re-derived on thaw:

    * the RC4 keystream restarts on rebind (the journal holds
      *plaintext* frames, re-encrypted under the fresh key — the same
      contract the reconnect path already relies on);
    * SRSF scheduling order is re-derived by re-adding the queued
      commands in arrival order (scheduling is a pure function of the
      queue plus input recency, and input recency does not survive a
      detach window anyway);
    * the audio backlog is dropped (late audio is worthless — the
      session is detached for the whole transfer); and
    * governor meter position (token bucket, coalesce clock)
      restarts, while the abuse tallies ride along in ``stats`` and
      seed the target governor's meter.
    """

    token: int
    viewport: Tuple[int, int]
    view_rect: Rect
    sequenced: bool
    degraded: bool
    shed_display: bool
    log_dropped: bool
    queue_dropped: bool
    last_seq: int
    acked_seq: int
    pipe_tail: float
    journal: Tuple[Tuple[int, bytes], ...]
    commands: Tuple[bytes, ...]
    replay: Tuple[bytes, ...]
    control: Tuple[bytes, ...]
    stats: Dict[str, float]
    # Broadcast fan-out membership (two of the flag bits): whether the
    # unit was subscribed, and whether as a tile-wall member (whose
    # rectangle is exactly ``view_rect``).
    subscribed: bool = False
    tile_mode: bool = False
    # Video degradation ladder position (repro.core.qos).  The rung is
    # the only QoS state that migrates: hysteresis counters and poll
    # clocks are plane-owned and re-derived from live measurements on
    # the target shard.
    qos_rung: int = 0

    def to_bytes(self) -> bytes:
        """Serialize for a SESSION_TRANSFER frame (bounded by
        ``LIMITS.max_transfer_bytes``; an honest session's journal and
        queue are budget-bounded far below it)."""
        blob = _FROZEN.pack(
            _FROZEN.fields["version"].hi, self.token, *self.viewport,
            self.view_rect,
            sum(getattr(self, name) << bit
                for bit, name in enumerate(_FLAGS)),
            self.last_seq, self.acked_seq, self.pipe_tail,
            *(int(self.stats.get(key, 0)) for key in _STATS[:-1]),
            float(self.stats.get("cpu_time", 0.0)), self.qos_rung,
            _pack_lists(self.journal, self.commands, self.replay,
                        self.control))
        if len(blob) > LIMITS.max_transfer_bytes:
            raise FrameTooLargeError(
                f"frozen session is {len(blob)} bytes "
                f"(> {LIMITS.max_transfer_bytes})")
        return blob

    @classmethod
    def from_bytes(cls, data: bytes) -> "FrozenSession":
        """Decode a transfer blob; malformed input raises a
        :class:`~repro.protocol.wire.ProtocolError` subclass before
        any object is built."""
        (_, token, viewport_w, viewport_h, view_rect, flags, last_seq,
         acked_seq, pipe_tail, *stats, qos_rung, lists) = _FROZEN.parse(data)
        journal, commands, replay, control = _take_lists(lists)
        return cls(
            token=token, viewport=(viewport_w, viewport_h),
            view_rect=view_rect, last_seq=last_seq, acked_seq=acked_seq,
            pipe_tail=pipe_tail, journal=journal, commands=commands,
            replay=replay, control=control, stats=dict(zip(_STATS, stats)),
            qos_rung=qos_rung,
            **{name: bool(flags >> bit & 1)
               for bit, name in enumerate(_FLAGS)})


def _fanout_membership(unit) -> Tuple[bool, bool]:
    """``(subscribed, tile_mode)`` for the frozen flag bits; membership
    itself is plane-owned and re-derived on thaw."""
    fanout = unit.server.fanout
    return fanout.is_subscriber(unit), fanout.is_tile(unit)


class SessionUnit:
    """Per-client server state: buffer/schedule, frame/encrypt, flush.

    Scaling and compression live on the server's shared prepare plane;
    the session only receives already-prepared commands through
    :meth:`enqueue_prepared`.

    Constructed with ``connection=None`` the unit starts detached (the
    thaw path: a migrated session has no socket until its client
    redials); ``greet=False`` suppresses the initial SCREEN_INIT (the
    client already holds the geometry from before the freeze).
    """

    def __init__(self, server, connection: Optional[Connection],
                 viewport=None, encrypt_key: Optional[bytes] = None,
                 sequenced: bool = False, greet: bool = True):
        self.server = server
        self.connection = connection
        self.loop = server.loop
        self.viewport = viewport or (server.width, server.height)
        self.scaler = DisplayScaler((server.width, server.height),
                                    self.viewport)
        self._encrypt_key = encrypt_key
        self.frame_stage = pipeline.FrameStage(
            RC4(encrypt_key) if encrypt_key else None)
        self.buffer = ClientBuffer(
            scheduler=server.scheduler_factory(),
            frame=self.frame_stage.frame,
        )
        # Resilience state: a detached session buffers but does not
        # flush; the plane sets ``journal`` to log sent frames, fills
        # ``_replay`` on resync, and toggles ``shed_display``.
        # ``degraded`` (audio shed) is the governor's alone: set by its
        # queue-bytes ladder on add, cleared by it after a flush.
        self.sequenced = sequenced
        self._writer = _SessionWriter(self, sequenced)
        self.journal: Optional[Callable[[int, bytes], None]] = None
        self.detached = connection is None
        self.degraded = False
        self.shed_display = False
        self.quarantined = False
        # Video degradation ladder rung (repro.core.qos): 0 is the
        # fixed-rate path.  Set only by the QoS plane; migrates so a
        # session does not snap back to full-rate video mid-congestion
        # just because it changed shards.
        self.qos_rung = 0
        # Each plane's state for this session lives *on* the unit, so
        # its whole state surface is reachable from it and dies with
        # it: the governor's meter, the resilience plane's guard (set
        # by the plane) and the QoS controller state (made by the plane
        # on the first video frame that polls this session).
        self.meter = SessionMeter(server.governor.budget, server.loop.now)
        self.guard = None
        self.qos_state = None
        # Set by the cluster coordinator after a migration: prepared
        # commands still scheduled against this (frozen) unit are
        # forwarded to the live successor on the target shard.
        self._successor: Optional["SessionUnit"] = None
        self._replay: Deque[bytes] = deque()
        self._control: Deque[bytes] = deque()
        self._audio: Deque[bytes] = deque()
        # Byte gauges over the control/audio queues, maintained at the
        # append/pop sites so the governor's backlog checks stay O(1).
        self._control_bytes = 0
        self._audio_bytes = 0
        self._flush_scheduled = False
        # Monotonic per-session enqueue horizon: a cache hit on the
        # prepare plane can be ready *before* this session's previously
        # submitted work, and the buffer stage must still see commands
        # in submission order (see repro.core.pipeline module docs).
        self._pipe_tail = 0.0
        self.stats = {"messages_sent": 0, "bytes_sent": 0,
                      "flush_periods": 0, "cpu_time": 0.0,
                      "audio_dropped": 0, "display_shed": 0,
                      "uplink_dropped": 0, "wire_errors": 0}
        if connection is not None:
            connection.up.connect(self._on_client_data)
        self.reset_parser()
        if greet:
            self.queue_control(wire.ScreenInitMessage(*self.viewport))

    @property
    def cipher(self):
        return self.frame_stage.cipher

    # -- framing ------------------------------------------------------------

    def _frame(self, msg) -> bytes:
        return self.frame_stage.frame(msg)

    # -- enqueue paths ---------------------------------------------------------

    def submit(self, command: Command) -> None:
        """Route a display command through the shared prepare plane.

        Preparation (scaling + compression) costs real server CPU; a
        command only becomes sendable once prepared.  The plane's cache
        means a command another same-viewport session already paid for
        arrives here for free.
        """
        self.server.plane.submit(command, (self,))

    def submit_batch(self, commands) -> None:
        """Route one drain of commands through the plane's batch path.

        Equivalent to :meth:`submit` per command, but same-shape RAW
        blocks share a fused filter pass (see
        :meth:`repro.core.pipeline.PreparePlane.submit_batch`).
        """
        self.server.plane.submit_batch(commands, (self,))

    def enqueue_prepared(self, command: Command,
                         ready_at: float = 0.0) -> None:
        """Buffer a prepared command once its CPU completion time passes.

        Clamped to the session's pipe tail so adds stay in submission
        order even when a cache hit is ready before earlier work.
        """
        if self._successor is not None:
            self._successor.enqueue_prepared(command, ready_at)
            return
        ready = max(ready_at, self._pipe_tail)
        self._pipe_tail = ready
        _sanitizer.check_pipe_tail(self, ready)
        if ready <= self.loop.now:
            self._add_to_buffer(command)
        else:
            self.loop.schedule(ready - self.loop.now,
                               lambda c=command: self._add_to_buffer(c))

    def _add_to_buffer(self, command: Command) -> None:
        if self._successor is not None:
            # This unit was frozen and migrated while the command's
            # prepare completion was still scheduled; the pixels belong
            # to the live successor on the target shard.
            self._successor._add_to_buffer(command)
            return
        if self.shed_display or self.quarantined:
            # The detach window expired and the queue was dropped (or
            # the governor evicted the session): the reconnect resync
            # will be a snapshot of *current* content, so buffering
            # more display work is pure waste.
            self.stats["display_shed"] += 1
            return
        self.buffer.add(command, now=self.loop.now)
        self.server.governor.after_display_add(self)
        self._kick()

    def queue_control(self, message) -> None:
        if self.quarantined:
            return
        data = self._frame(message)
        self._control.append(data)
        self._control_bytes += len(data)
        self.server.governor.after_control_add(self)
        self._kick()

    def queue_audio(self, timestamp: float, samples: bytes) -> None:
        if self.detached or self.degraded or self.quarantined:
            # Audio is useless late: a detached client cannot hear it
            # and a congested pipe should spend its bytes on display
            # updates (graceful degradation sheds audio first).
            self.stats["audio_dropped"] += 1
            return
        data = self._frame(wire.AudioChunkMessage(timestamp, samples))
        self._audio.append(data)
        self._audio_bytes += len(data)
        self.server.governor.after_audio_add(self)
        self._kick()

    # -- governance gauges and hooks -----------------------------------------

    @property
    def audio_backlog_bytes(self) -> int:
        return self._audio_bytes

    @property
    def control_backlog_bytes(self) -> int:
        return self._control_bytes

    def drop_oldest_audio(self) -> None:
        data = self._audio.popleft()
        self._audio_bytes -= len(data)
        self.stats["audio_dropped"] += 1

    def clear_audio(self) -> None:
        self._audio.clear()
        self._audio_bytes = 0

    def reset_parser(self) -> None:
        """(Re)create the uplink parser with the typed wire limits:
        small frames only, a bounded reassembly buffer, and only
        client-to-server message types accepted."""
        self._parser = wire.StreamParser(
            max_frame=LIMITS.max_uplink_frame_bytes,
            max_pending=LIMITS.max_uplink_pending_bytes,
            allowed=SERVER_ACCEPTS)

    def note_input(self, event: InputEvent) -> None:
        # Input arrives in session coordinates; the real-time region is
        # matched against commands already mapped into this client's
        # (possibly zoomed, scaled) viewport space.
        x, y = self.scaler.map_point(event.x, event.y)
        self.buffer.note_input(x, y, event.time)

    # -- flush machinery ----------------------------------------------------------

    def _kick(self) -> None:
        if self.detached:
            return  # rebind() re-kicks when a connection is back
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.loop.schedule(0.0, self._flush)

    def pending(self) -> bool:
        return bool(self._replay or self._control or self._audio
                    or self.buffer.pending_commands())

    def _flush(self) -> None:
        self._flush_scheduled = False
        if self.detached:
            return  # no socket to write to; rebind() resumes flushing
        self.stats["flush_periods"] += 1
        writer = self._writer
        sent_before = writer.total_bytes
        # Resync replay drains first (the client must catch up to the
        # stream point before new frames make sense), then control
        # messages (tiny, order-sensitive), then audio
        # (latency-sensitive), then display commands in SRSF order.
        while self._replay and \
                len(self._replay[0]) <= writer.prewrapped_writable():
            writer.write_prewrapped(self._replay.popleft())
            self.stats["messages_sent"] += 1
        for fifo in (self._control, self._audio):
            if self._replay:
                break
            while fifo and len(fifo[0]) <= writer.writable_bytes():
                data = fifo.popleft()
                if fifo is self._control:
                    self._control_bytes -= len(data)
                else:
                    self._audio_bytes -= len(data)
                writer.write(data)
                self.stats["messages_sent"] += 1
        if not self._replay and not self._control:
            result = self.buffer.flush(writer)
            self.stats["messages_sent"] += result.commands_sent
        self.stats["bytes_sent"] += writer.total_bytes - sent_before
        if self.degraded:
            # A flush is where the backlog drains, so the degrade-exit
            # watermark is evaluated here rather than on the next add,
            # which a display gone quiet never makes.
            self.server.governor.after_flush(self)
        if self.pending():
            self._flush_scheduled = True
            self.loop.schedule(FLUSH_INTERVAL, self._flush)

    # -- resilience hooks (driven by repro.core.resilience) -------------------

    def detach(self) -> None:
        """The plane lost the client: stop flushing, keep absorbing.

        The command queue keeps taking display updates (eviction keeps
        it minimal — exactly the Section 4 replay invariant the resync
        relies on); audio is shed; control messages are preserved.
        """
        self.detached = True

    def rebind(self, connection: Connection) -> None:
        """Bind this session to a freshly dialled connection.

        The old endpoint's receiver is neutralised so late in-flight
        segments cannot reach the new parser, the parser restarts
        clean, and both sides restart their RC4 keystreams (the replay
        log holds plaintext frames, re-encrypted on the way out).
        """
        if self.connection is not None:
            self.connection.up.disconnect()
        self.connection = connection
        connection.up.connect(self._on_client_data)
        self.reset_parser()
        if self._encrypt_key is not None:
            self.frame_stage.rekey(RC4(self._encrypt_key))
        self.detached = False
        self._kick()

    # -- the serializable edge (driven by repro.cluster) -----------------------

    def freeze(self) -> FrozenSession:
        """Capture this unit's frozen half and detach it.

        The transport receiver is neutralised first so late in-flight
        client bytes cannot mutate the state mid-capture.  The caller
        (the shard coordinator) then detaches the unit from its server,
        ships the blob, thaws it elsewhere, and points this husk at the
        successor with :meth:`forward_to`.
        """
        if self.connection is not None:
            self.connection.up.disconnect()
        self.detached = True
        subscribed, tile_mode = _fanout_membership(self)
        guard = self.guard
        return FrozenSession(
            token=guard.token if guard is not None else 0,
            viewport=(int(self.viewport[0]), int(self.viewport[1])),
            view_rect=self.scaler.view,
            sequenced=self.sequenced,
            degraded=self.degraded,
            shed_display=self.shed_display,
            log_dropped=bool(guard.log_dropped) if guard is not None
            else False,
            queue_dropped=bool(guard.queue_dropped) if guard is not None
            else False,
            last_seq=self._writer.last_seq,
            acked_seq=guard.acked_seq if guard is not None else 0,
            pipe_tail=self._pipe_tail,
            journal=tuple(guard.log) if guard is not None else (),
            commands=tuple(cmd.encode() for cmd in self.buffer.queue),
            replay=tuple(self._replay),
            control=tuple(self._control),
            stats=dict(self.stats),
            subscribed=subscribed,
            tile_mode=tile_mode,
            qos_rung=self.qos_rung,
        )

    def forward_to(self, successor: "SessionUnit") -> None:
        """Route work still scheduled against this frozen unit (prepare
        completions in flight at freeze time) to its live successor."""
        self._successor = successor

    # -- instrumentation -----------------------------------------------------

    def pipeline_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-stage counters for this session's half of the pipeline."""
        bstats = self.buffer.stats
        return {
            "buffer": {
                "commands_in": bstats["commands_in"],
                "commands_out": bstats["commands_out"],
                "bytes_out": bstats["bytes_out"],
                "commands_split": bstats["commands_split"],
                "queue_depth": self.buffer.pending_commands(),
            },
            "frame": self.frame_stage.stats.as_dict(),
            "flush": {
                "flush_periods": self.stats["flush_periods"],
                "commands_out": self.stats["messages_sent"],
                "bytes_out": self.stats["bytes_sent"],
                "queue_depth": len(self._control) + len(self._audio),
            },
        }

    # -- client-to-server traffic ---------------------------------------------

    def _on_client_data(self, chunk: bytes) -> None:
        # Client->server traffic is not encrypted in this model (input
        # events only; the paper encrypts both ways but RC4 is
        # size-preserving so accounting is identical).
        if self.quarantined:
            return
        governor = self.server.governor
        try:
            for msg in self._parser.feed(chunk):
                if not governor.allow_uplink(self):
                    self.stats["uplink_dropped"] += 1
                    continue
                self.server.handle_client_message(self, msg)
        except (ValueError, KeyError, struct.error, zlib.error) as exc:
            # Any decode failure is a session-scoped event, never a
            # server crash: the governor either resets the parser (a
            # resilient session on a lossy link — heartbeats repeat and
            # the liveness clock already advanced when the bytes
            # arrived) or quarantines and detaches the session.
            self.stats["wire_errors"] += 1
            governor.on_wire_error(self, exc)
