"""The THINC client: a thin, mostly stateless display device.

The client decrypts, parses and executes protocol commands against its
local framebuffer — nothing more.  Each command maps onto an operation
commodity display hardware accelerates (Section 3), so execution is a
direct call into the framebuffer raster ops.

Two features mirror the paper's experimental apparatus:

* a **headless** mode reproducing the instrumented client deployed on
  the PlanetLab sites (Section 8.1): all data is processed and
  accounted for, but nothing is rendered; and
* a simple **client processing-time model** (cost per byte parsed plus
  cost per pixel drawn) standing in for the client-side instrumentation
  used to include processing time in Figure 2's cross-hatched bars.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..display.framebuffer import Framebuffer
from ..net.clock import EventLoop
from ..net.transport import Connection
from ..protocol import wire
from ..protocol.commands import Command, VideoFrameCommand
from ..protocol.limits import LIMITS
from ..protocol.rc4 import RC4
from ..protocol.spec import CLIENT_ACCEPTS, SEQUENCED_ACCEPTS

__all__ = ["THINCClient", "ClientCostModel", "VideoStreamStats",
           "AudioStats"]


class ClientCostModel:
    """Per-message client processing cost, in seconds.

    ``per_byte`` models parse/decompress work, ``per_pixel`` models
    drawing work.  The rates approximate the paper's 450 MHz PII client:
    tens of MB/s of protocol processing, hundreds of Mpix/s of blitting.
    """

    per_byte = 2e-8
    per_pixel = 2e-9
    fixed = 2e-6

    def cost(self, nbytes: int, npixels: int) -> float:
        return self.fixed + nbytes * self.per_byte + npixels * self.per_pixel


@dataclass
class VideoStreamStats:
    # (frame number, client arrival time) pairs, in arrival order: the
    # stream's frame count, frame numbers and span all derive from it.
    arrivals: List[Tuple[int, float]] = field(default_factory=list)


@dataclass
class AudioStats:
    # (server timestamp, client arrival time) pairs for sync analysis.
    arrivals: List[Tuple[float, float]] = field(default_factory=list)


class THINCClient:
    """Executes the THINC protocol against a local framebuffer."""

    # Sanity cap on a frame's declared payload length: a corrupted
    # header must raise a ProtocolError, not stall the parser forever
    # waiting for gigabytes that will never arrive.
    MAX_FRAME = LIMITS.max_frame_bytes

    def __init__(self, loop: EventLoop, connection: Optional[Connection],
                 viewport: Optional[Tuple[int, int]] = None,
                 headless: bool = False,
                 decrypt_key: Optional[bytes] = None):
        self.loop = loop
        self.connection = connection
        self.headless = headless
        self._decrypt_key = decrypt_key
        self.cipher = RC4(decrypt_key) if decrypt_key else None
        self.cost_model = ClientCostModel()
        # The accepted-id set comes from the protocol spec (THL201): a
        # server-to-server frame — say a SESSION_TRANSFER smuggled down a
        # compromised relay — dies at the frame header.
        self.parser = wire.StreamParser(max_frame=self.MAX_FRAME,
                                        allowed=CLIENT_ACCEPTS)
        # Resilience state: highest CHECKED sequence applied (resync
        # replay duplicates are skipped by it), and an optional hook a
        # resilient wrapper sets to turn parse failures into reconnects
        # instead of crashes.
        self.last_applied_seq = 0
        self._seq_barrier = False
        self.on_protocol_error: Optional[callable] = None
        # Governance hook: called with an AttachDeniedMessage when the
        # server's governor turns this client away (admission refusal
        # or eviction); the client also counts it and remembers the
        # retry hint so callers can surface it cleanly.
        self.on_attach_denied: Optional[callable] = None
        self.attach_denied: Optional[wire.AttachDeniedMessage] = None
        self.fb: Optional[Framebuffer] = None
        if viewport is not None:
            self.fb = Framebuffer(*viewport)
        # Hardware-cursor model: position tracked locally from the
        # user's own input (zero-latency), shape pushed by the server.
        self.cursor_pos: Tuple[int, int] = (0, 0)
        self.cursor_image = None  # numpy HxWx4 when a shape arrives
        self.cursor_hotspot: Tuple[int, int] = (0, 0)
        self.video_streams: Dict[int, wire.VideoSetupMessage] = {}
        self.video_stats: Dict[int, VideoStreamStats] = {}
        # Latest QoS descriptor per stream: which degradation rung the
        # server's QoS plane is feeding this client at (repro.core.qos).
        self.video_quality: Dict[int, wire.VideoQualityMessage] = {}
        # Display-wall membership, set by a TILE_ASSIGN from the server
        # after a tile-mode SUBSCRIBE.
        self.tile_assignment: Optional[wire.TileAssignMessage] = None
        self.audio = AudioStats()
        self.stats = {
            "bytes_received": 0,
            "messages": 0,
            "commands_by_kind": {},
            "bytes_by_kind": {},
            "last_update_time": 0.0,
            "processing_time": 0.0,
            "last_rx_time": 0.0,
            "protocol_errors": 0,
            "replay_skipped": 0,
            "seq_gaps": 0,
            "attach_denied": 0,
        }
        if connection is not None:
            connection.down.connect(self._on_data)

    # -- connection management -----------------------------------------------

    def rebind(self, connection: Connection) -> None:
        """Attach to a freshly dialled connection after a reconnect.

        The old endpoint is neutralised (late in-flight segments must
        not reach the new parser), parsing restarts clean, and the RC4
        keystream restarts to mirror the server's re-key.  Framebuffer
        and cursor state survive: the resync stream builds on it.
        Every rebound stream is sequenced, so its parser takes CHECKED
        headers only, each with its lengths cross-checked.
        """
        if self.connection is not None:
            self.connection.down.disconnect()
        self.connection = connection
        self.parser = wire.StreamParser(max_frame=self.MAX_FRAME,
                                        allowed=SEQUENCED_ACCEPTS)
        if self._decrypt_key is not None:
            self.cipher = RC4(self._decrypt_key)
        connection.down.connect(self._on_data)

    def note_snapshot_resync(self) -> None:
        """The server dropped its replay log (snapshot resync): the
        next CHECKED sequence number is adopted without counting the
        inherent discontinuity as a gap."""
        self._seq_barrier = True

    # -- input injection (client -> server) ---------------------------------------

    def send_input(self, kind: str, x: int, y: int) -> None:
        # The pointer moves locally before the event reaches the server.
        self.cursor_pos = (x, y)
        msg = wire.InputMessage(kind, x, y, self.loop.now)
        self.connection.up.write(wire.encode_message(msg))

    def request_resize(self, width: int, height: int) -> None:
        """Report a new viewport size to the server (Section 6)."""
        self.connection.up.write(
            wire.encode_message(wire.ResizeMessage(width, height)))

    def request_refresh(self, rect) -> None:
        """Ask the server to resend a region (server coordinates)."""
        self.connection.up.write(
            wire.encode_message(wire.RefreshRequestMessage(rect)))

    def request_subscribe(self, mode: int = 0, cols: int = 0,
                          rows: int = 0, index: int = 0) -> None:
        """Join the broadcast fan-out plane (mirror by default; pass
        ``mode=wire.SUBSCRIBE_TILE`` plus a grid to claim a wall tile)."""
        self.connection.up.write(wire.encode_message(
            wire.SubscribeMessage(mode, cols, rows, index)))

    def request_zoom(self, rect) -> None:
        """Zoom the viewport onto a desktop region (Section 6); an
        empty rect zooms back out to the whole desktop."""
        self.connection.up.write(
            wire.encode_message(wire.ZoomRequestMessage(rect)))

    def send_qos_report(self, stream_id: int, units_total: int,
                        ideal_duration: float) -> wire.QosReportMessage:
        """Measure playback health and report it upstream.

        The paper's quality measures (Section 8.2) are computed where
        they are observable — at the client — from the arrival records
        this client already keeps: video slow-motion quality from the
        stream's frame span, audio quality from chunk timeliness, and
        A/V sync skew from the delivery-delay difference.  The caller
        supplies the source's ground truth (*units_total* frames over
        *ideal_duration* seconds).
        """
        from ..audio import sync

        vstats = self.video_stats.get(stream_id)
        video = vstats.arrivals if vstats is not None else []
        frames = len(video)
        playback = 0.0
        if frames and units_total > 0 and ideal_duration > 0:
            actual = max(video[-1][1] - video[0][1], 0.0)
            playback = sync.playback_quality(
                frames, units_total, ideal_duration, actual)
        audio_q = 1.0
        if self.audio.arrivals:
            audio_q = sync.audio_quality(
                self.audio.arrivals, len(self.audio.arrivals),
                ideal_duration)
        skew = 0.0
        if video and units_total > 0:
            # Video arrivals carry frame numbers; the source cadence
            # turns them into server-side timestamps for the skew
            # comparison against audio's real timestamps.
            period = ideal_duration / units_total
            video_pairs = [(no * period, arr) for no, arr in video]
            skew = sync.av_sync_skew(self.audio.arrivals, video_pairs)
        msg = wire.QosReportMessage(
            stream_id, frames,
            min(1.0, max(0.0, playback)),
            min(1.0, max(0.0, audio_q)),
            min(LIMITS.max_av_skew, max(0.0, skew)))
        self.connection.up.write(wire.encode_message(msg))
        return msg

    # -- receive path ---------------------------------------------------------

    def _on_data(self, chunk: bytes) -> None:
        self.stats["bytes_received"] += len(chunk)
        self.stats["last_rx_time"] = self.loop.now
        if self.cipher is not None:
            chunk = self.cipher.process(chunk)
        try:
            messages = self.parser.feed(chunk)
            for msg in messages:
                self._handle(msg)
        except (ValueError, KeyError, struct.error, zlib.error) as exc:
            # A corrupted stream can fail anywhere in parse/decode.
            # With a resilience hook installed the client reports the
            # damage and expects a resync; without one this is a real
            # bug and must surface.
            if self.on_protocol_error is None:
                raise
            self.stats["protocol_errors"] += 1
            self.parser.reset()
            self.on_protocol_error(exc)

    def _handle(self, msg) -> None:
        if isinstance(msg, wire.CheckedFrame):
            # Sequenced stream: skip anything already applied (resync
            # replays overlap by design — duplicates are benign, which
            # is what makes non-idempotent COPY safe to replay), and
            # record gaps, which a correct server never produces.
            if msg.seq <= self.last_applied_seq:
                self.stats["replay_skipped"] += 1
                return
            if self._seq_barrier:
                self._seq_barrier = False
            elif self.last_applied_seq and \
                    msg.seq > self.last_applied_seq + 1:
                self.stats["seq_gaps"] += 1
            self.last_applied_seq = msg.seq
            msg = msg.message
        self.stats["messages"] += 1
        now = self.loop.now
        if isinstance(msg, (wire.HeartbeatMessage,
                            wire.ReconnectAcceptMessage,
                            wire.ReconnectDeniedMessage)):
            # Session-plane traffic; arrival time alone is the signal
            # (a resilient wrapper tracks last_rx_time).
            return
        if isinstance(msg, wire.AttachDeniedMessage):
            # The governor turned this client away (admission refusal
            # or eviction).  Surface it cleanly — no exception, no
            # diagnosing a silent hangup.
            self.stats["attach_denied"] += 1
            self.attach_denied = msg
            if self.on_attach_denied is not None:
                self.on_attach_denied(msg)
            return
        if isinstance(msg, wire.ScreenInitMessage):
            if self.fb is None or (self.fb.width, self.fb.height) != (
                    msg.width, msg.height):
                self.fb = Framebuffer(msg.width, msg.height)
            return
        if isinstance(msg, wire.TileAssignMessage):
            # Display-wall membership: remember which sub-rectangle of
            # the virtual wall this panel owns.  The stream that
            # follows is already clipped to it (at 1:1), so execution
            # needs no change — the assignment is for placement and
            # wall reassembly.
            self.tile_assignment = msg
            return
        if isinstance(msg, wire.VideoSetupMessage):
            self.video_streams[msg.stream_id] = msg
            self.video_stats.setdefault(msg.stream_id, VideoStreamStats())
            return
        if isinstance(msg, wire.VideoMoveMessage):
            return
        if isinstance(msg, wire.VideoQualityMessage):
            # The server announced a ladder move; rung 0 means the
            # stream is back to full-rate video.
            if msg.rung == 0:
                self.video_quality.pop(msg.stream_id, None)
            else:
                self.video_quality[msg.stream_id] = msg
            return
        if isinstance(msg, wire.VideoTeardownMessage):
            self.video_streams.pop(msg.stream_id, None)
            self.video_quality.pop(msg.stream_id, None)
            return
        if isinstance(msg, wire.CursorImageMessage):
            import numpy as np

            self.cursor_image = np.frombuffer(
                msg.rgba, dtype=np.uint8).reshape(msg.height, msg.width, 4)
            self.cursor_hotspot = (msg.hot_x, msg.hot_y)
            return
        if isinstance(msg, wire.AudioChunkMessage):
            self.audio.arrivals.append((msg.timestamp, now))
            return
        if isinstance(msg, Command):
            self._execute(msg, now)
            return
        raise ValueError(f"client cannot handle message {msg!r}")

    def _execute(self, cmd: Command, now: float) -> None:
        kinds = self.stats["commands_by_kind"]
        kinds[cmd.kind] = kinds.get(cmd.kind, 0) + 1
        sizes = self.stats["bytes_by_kind"]
        nbytes = cmd.wire_size()  # the frame's, for a decoded command
        sizes[cmd.kind] = sizes.get(cmd.kind, 0) + nbytes
        npixels = cmd.dest.area
        self.stats["processing_time"] += self.cost_model.cost(
            nbytes, npixels)
        self.stats["last_update_time"] = now
        if isinstance(cmd, VideoFrameCommand):
            vstats = self.video_stats.setdefault(cmd.stream_id,
                                                 VideoStreamStats())
            vstats.arrivals.append((cmd.frame_no, now))
        if not self.headless and self.fb is not None:
            cmd.apply(self.fb)

    # -- analysis helpers ---------------------------------------------------------

    def total_commands(self) -> int:
        return sum(self.stats["commands_by_kind"].values())

    def done_time_with_processing(self) -> float:
        """Last-update time plus modelled client processing time."""
        return self.stats["last_update_time"] + self.stats["processing_time"]
