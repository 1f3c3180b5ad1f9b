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
  the resilience journal, the buffered command queue and the prepared
  commands still in flight, pending resync / control frames and the
  counters.  ``freeze()`` captures it; :meth:`SessionUnit.thaw`
  rebuilds a live unit from it on any shard.

Freeze/thaw is the primitive under live migration in
:mod:`repro.cluster`: a frozen session crosses the shard fabric inside
a ``SESSION_TRANSFER`` frame, and the client reconnects through the
same detach/resync path it would use after a network fault — migration
is deliberately *not* a new recovery mechanism, just a new reason to
detach.  A prepared command whose simulated CPU has not finished at
the freeze travels in the blob after the buffered ones, so no pixels
are lost mid-migration and nothing stays behind on the source.
"""

from __future__ import annotations

import struct
import zlib
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple

from ..display.driver import InputEvent
from ..net.transport import Connection
from ..protocol import wire
from ..protocol.commands import Command, decode_command
from ..protocol.limits import LIMITS
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
    "journal_bytes": "gauge over journal, recomputed on thaw",
    "detached_at": "a frozen unit is detached by definition; thaw "
                   "rebuilds the unit detached until the client redials",
    "guard": "the resilience plane's liveness, backoff and keepalive "
             "clocks judge this host; the target's plane enrols the "
             "unit afresh",
    "quarantined": "governor verdicts are host-local; an abusive "
                   "session is evicted, never migrated",
    "meter": "governor budgets are per-host capacity, not session "
             "state; the target's governor starts a fresh meter, and "
             "the abuse tallies it judges by migrate in stats",
    "qos_state": "hysteresis counters and poll clocks judge this "
                 "host's link; only the rung migrates, and the thawed "
                 "unit re-derives the rest from live polls",
    "link_posture": "a verdict on this host's link, good for one probe "
                    "window; the target's probe takes its own",
    "_audio": "audio is useless late (the paper sheds it first); a "
              "migration pause always exceeds its freshness window",
    "_audio_bytes": "gauge over _audio, which is dropped",
    "_control_bytes": "gauge over _control, recomputed on thaw",
    "_flush_scheduled": "transient event-loop bookkeeping; a detached "
                        "unit never flushes",
    "_parser": "uplink parse state dies with the severed connection; "
               "reset_parser() starts the successor clean",
}


def _check_frozen(row) -> None:
    if row.view_rect.empty:
        raise FieldRangeError("frozen view rect is empty")
    if row.acked_seq > row.last_seq:
        raise FieldRangeError(
            f"frozen session acked seq {row.acked_seq} is past the last "
            f"one sent, {row.last_seq}")


#: The FrozenSession blob, version 4 (v4 dropped the sequenced and
#: subscribed flag bits: a non-zero token is what sequences a session,
#: and fan-out membership is ``tile_mode`` plus the view): this fixed
#: part, then four counted lists.
_FROZEN = FieldTable("frozen session", dict(
    version=u8(4, 4), token=u32(),
    viewport_w=u16(1, "max_viewport_dim"),
    viewport_h=u16(1, "max_viewport_dim"),
    view_rect=rect16(), flags=u8(0, 0x0F),  # bit i <-> _FLAGS[i]
    last_seq=u32(), acked_seq=u32(),
    messages_sent=u32(), bytes_sent=u64(), flush_periods=u32(),
    audio_dropped=u32(), display_shed=u32(), uplink_dropped=u32(),
    wire_errors=u32(), cpu_time=f64(),  # ``stats``, under its keys
    qos_rung=u8(0, "max_qos_rung"),
    lists=rest(max="max_transfer_bytes")), check=_check_frozen)

#: Flag bits, in order.
_FLAGS = ("degraded", "shed_display", "log_dropped", "tile_mode")
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
      restarts, while the abuse tallies the governor judges by ride
      along in ``stats``.

    A non-zero ``token`` is a guarded session, whose frames are
    CHECKED-wrapped and journaled: the one state a resilient client's
    rebound parser can read.
    """

    token: int
    viewport: Tuple[int, int]
    view_rect: Rect
    degraded: bool
    shed_display: bool
    log_dropped: bool
    last_seq: int
    acked_seq: int
    journal: Tuple[Tuple[int, bytes], ...]
    commands: Tuple[bytes, ...]
    replay: Tuple[bytes, ...]
    control: Tuple[bytes, ...]
    stats: Dict[str, float]
    # Broadcast fan-out membership (one flag bit): whether the unit is
    # a tile-wall member, whose rectangle is exactly ``view_rect``.
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
            self.last_seq, self.acked_seq,
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
         acked_seq, *stats, qos_rung, lists) = _FROZEN.parse(data)
        journal, commands, replay, control = _take_lists(lists)
        return cls(
            token=token, viewport=(viewport_w, viewport_h),
            view_rect=view_rect, last_seq=last_seq, acked_seq=acked_seq,
            journal=journal, commands=commands,
            replay=replay, control=control, stats=dict(zip(_STATS, stats)),
            qos_rung=qos_rung,
            **{name: bool(flags >> bit & 1)
               for bit, name in enumerate(_FLAGS)})


class SessionUnit:
    """Per-client server state: buffer/schedule, frame/encrypt, flush.

    Scaling and compression live on the server's shared prepare plane;
    the session only receives already-prepared commands through
    :meth:`enqueue_prepared`.

    Constructed with ``connection=None`` the unit starts detached (the
    thaw path: a migrated session has no socket until its client
    redials); ``greet=False`` suppresses the initial SCREEN_INIT (the
    client already holds the geometry from before the freeze).  A
    non-zero ``token`` makes the unit guarded by the resilience plane.
    """

    def __init__(self, server, connection: Optional[Connection],
                 viewport=None, token: int = 0, greet: bool = True):
        self.server = server
        self.connection = connection
        self.loop = server.loop
        self.scaler = DisplayScaler((server.width, server.height),
                                    viewport or (server.width, server.height))
        # Resilience state: a detached session buffers but does not
        # flush.  A guarded unit (``token`` non-zero, issued by the
        # plane) journals the frames it sends, ``(seq, plaintext
        # CHECKED frame)``, pruned by the client's cumulative ack; the
        # plane fills ``_replay`` on resync and drops the journal, queue
        # and further display work (``shed_display``) once the client
        # has been away too long.  ``degraded`` (audio shed) is the
        # governor's alone: set by its queue-bytes ladder on add,
        # cleared by it after a flush.
        self.token = token
        self.journal: Deque[Tuple[int, bytes]] = deque()
        self.journal_bytes = 0
        self.acked_seq = 0
        self.log_dropped = False
        self.detached_at: Optional[float] = \
            None if connection is not None else self.loop.now
        self.degraded = False
        self.shed_display = False
        self.quarantined = False
        # The one home of every per-session counter: the flush loop,
        # the frame stage (frames and bytes sent) and the governor
        # (abuse tallies) all count here.
        self.stats = {"messages_sent": 0, "bytes_sent": 0,
                      "flush_periods": 0, "cpu_time": 0.0,
                      "audio_dropped": 0, "display_shed": 0,
                      "uplink_dropped": 0, "wire_errors": 0}
        self.frame_stage = pipeline.FrameStage(self)
        self.buffer = ClientBuffer(
            scheduler=server.scheduler_factory(),
            frame=self.frame_stage.frame,
        )
        # Video degradation ladder rung (repro.core.qos): 0 is the
        # fixed-rate path.  Set only by the QoS plane; migrates so a
        # session does not snap back to full-rate video mid-congestion
        # just because it changed shards.
        self.qos_rung = 0
        # Each plane's state for this session lives *on* the unit, so
        # its whole state surface is reachable from it and dies with
        # it: the governor's meter, the resilience plane's clocks (set
        # by the plane), the QoS controller state (made by the plane
        # on the first video frame that polls this session), the link
        # probe's ``(window, posture)`` verdict, and fan-out membership
        # — a tile member's rectangle is its scaler's view.
        self.meter = SessionMeter(server.governor.budget, server.loop.now)
        self.guard = None
        self.qos_state = None
        self.link_posture = None
        self.tile_mode = False
        # Prepared commands whose simulated CPU has not finished, in
        # submission order; each enters the buffer at its ready time.
        self._preparing: Deque[Command] = deque()
        self._replay: Deque[bytes] = deque()
        self._control: Deque[bytes] = deque()
        self._audio: Deque[bytes] = deque()
        # Byte gauges over the control/audio queues, maintained at the
        # append/pop sites so the governor's backlog checks stay O(1).
        self._control_bytes = 0
        self._audio_bytes = 0
        self._flush_scheduled = False
        if connection is not None:
            connection.up.connect(self._on_client_data)
        self.reset_parser()
        if greet:
            self.queue_control(wire.ScreenInitMessage(*self.viewport))

    @property
    def viewport(self) -> Tuple[int, int]:
        """The client's framebuffer size: what its scaler maps into."""
        return self.scaler.client_w, self.scaler.client_h

    @property
    def detached(self) -> bool:
        return self.detached_at is not None

    # -- enqueue paths ---------------------------------------------------------

    def submit(self, command: Command) -> None:
        """Route a display command through the shared prepare plane.

        Preparation (scaling + compression) costs real server CPU; a
        command only becomes sendable once prepared.
        """
        self.server.plane.submit(command, (self,))

    def enqueue_prepared(self, command: Command, ready_at: float) -> None:
        """Buffer a prepared command once its CPU completion time passes.

        The command waits in ``_preparing`` until then.  One plane's
        serial CPU makes a session's ready times non-decreasing (every
        prepare costs at least ``ServerCostModel.per_command``, so none
        is at or before now), so each scheduled add takes the head of
        that FIFO and the buffer sees commands in submission order.
        """
        _sanitizer.check_pipe_tail(self, ready_at)
        self._preparing.append(command)
        self.loop.schedule(ready_at - self.loop.now, self._add_to_buffer)

    def _add_to_buffer(self) -> None:
        command = self._preparing.popleft()
        if self.shed_display or self.quarantined:
            # The detach window expired and the queue was dropped (or
            # the governor evicted the session): the reconnect resync
            # will be a snapshot of *current* content, so buffering
            # more display work is pure waste.
            self.stats["display_shed"] += 1
            return
        # The buffer prices what it holds by wire size (eviction, the
        # governor's byte ladder, SRSF), so the payload is read here, at
        # the command's simulated completion time: a PNG payload the
        # prepare stage began beside the loop is collected now.
        command.wire_size()
        self.buffer.add(command, now=self.loop.now)
        self.server.governor.after_display_add(self)
        self._kick()

    def queue_control(self, message) -> None:
        if self.quarantined:
            return
        data = self.frame_stage.frame(message)
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
        data = self.frame_stage.frame(
            wire.AudioChunkMessage(timestamp, samples))
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
        stage = self.frame_stage
        # Resync replay drains first (the client must catch up to the
        # stream point before new frames make sense), then control
        # messages (tiny, order-sensitive), then audio
        # (latency-sensitive), then display commands in SRSF order.
        while self._replay and \
                len(self._replay[0]) <= stage.prewrapped_writable():
            stage.write_prewrapped(self._replay.popleft())
        for fifo in (self._control, self._audio):
            if self._replay:
                break
            while fifo and len(fifo[0]) <= stage.writable_bytes():
                data = fifo.popleft()
                if fifo is self._control:
                    self._control_bytes -= len(data)
                else:
                    self._audio_bytes -= len(data)
                stage.write(data)
        if not self._replay and not self._control:
            self.buffer.flush(stage)
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
        relies on); audio is shed; control messages are preserved.  The
        detach window counts from the first detach.
        """
        if self.detached_at is None:
            self.detached_at = self.loop.now

    def drop_journal(self, dropped: bool) -> None:
        """Empty the replay journal; *dropped* records that it no longer
        holds every frame sent since the client's ack."""
        self.journal.clear()
        self.journal_bytes = 0
        self.log_dropped = dropped

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
        self.frame_stage.rekey()
        self.detached_at = None
        self._kick()

    # -- the serializable edge (driven by repro.cluster) -----------------------

    def freeze(self) -> FrozenSession:
        """Capture this unit's frozen half and detach it.

        The transport receiver is neutralised first so late in-flight
        client bytes cannot mutate the state mid-capture.  Commands
        still preparing follow the buffered ones in ``commands`` (none
        once display is shed, which would drop them on either host);
        they stay in ``_preparing`` too, so a unit whose transfer fails
        keeps delivering them, and a migrated one buffers them into its
        own detached queue, which nothing flushes.
        """
        if self.connection is not None:
            self.connection.up.disconnect()
        self.detach()
        in_flight = () if self.shed_display else tuple(self._preparing)
        return FrozenSession(
            token=self.token,
            viewport=(int(self.viewport[0]), int(self.viewport[1])),
            view_rect=self.scaler.view,
            degraded=self.degraded,
            shed_display=self.shed_display,
            log_dropped=self.log_dropped,
            last_seq=self.frame_stage.last_seq,
            acked_seq=self.acked_seq,
            journal=tuple(self.journal),
            commands=tuple(cmd.encode()
                           for cmd in (*self.buffer.queue, *in_flight)),
            replay=tuple(self._replay),
            control=tuple(self._control),
            stats=dict(self.stats),
            tile_mode=self.tile_mode,
            qos_rung=self.qos_rung,
        )

    @classmethod
    def thaw(cls, server, frozen: FrozenSession) -> "SessionUnit":
        """Rebuild a live unit on *server* from its frozen surface.

        The inverse of :meth:`freeze`.  The unit starts detached — its
        client is still dialling — and greets nobody: the restored
        queue and journal already describe exactly what the client is
        missing.  The governor's meter restarts, but the abuse tallies
        it judges by come back in ``stats``, so migrating does not buy
        a session a fresh error allowance.  The token, journal, ack
        mark and drop flags come back as they were frozen; enrolling
        the unit with the server and its resilience plane is the
        caller's (``THINCServer.thaw_session``).
        """
        unit = cls(server, None, token=frozen.token, greet=False)
        unit.scaler = DisplayScaler((server.width, server.height),
                                    frozen.viewport,
                                    view_rect=frozen.view_rect)
        unit.frame_stage.last_seq = frozen.last_seq
        unit.journal.extend(frozen.journal)
        unit.journal_bytes = sum(len(data) for _, data in frozen.journal)
        unit.acked_seq = frozen.acked_seq
        unit.log_dropped = frozen.log_dropped
        unit.degraded = frozen.degraded
        unit.shed_display = frozen.shed_display
        unit.tile_mode = frozen.tile_mode
        unit.qos_rung = frozen.qos_rung
        for blob in frozen.commands:
            # Straight into the buffer, the source's in-flight commands
            # too: a shedding unit froze none of those, and a detached
            # guarded unit's queue is the resilience plane's to govern.
            unit.buffer.add(decode_command(blob), now=unit.loop.now)
        unit._replay.extend(frozen.replay)
        unit._control.extend(frozen.control)
        unit._control_bytes = sum(map(len, frozen.control))
        unit.stats.update(frozen.stats)
        return unit

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
                if governor.allow_uplink(self):
                    self.server.handle_client_message(self, msg)
        except (ValueError, KeyError, struct.error, zlib.error) as exc:
            # Any decode failure is a session-scoped event, never a
            # server crash: the governor either resets the parser (a
            # resilient session on a lossy link — heartbeats repeat and
            # the liveness clock already advanced when the bytes
            # arrived) or quarantines and detaches the session.
            governor.on_wire_error(self, exc)
