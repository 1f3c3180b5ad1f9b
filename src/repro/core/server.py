"""The THINC server: a thin shard host over session units.

The server owns one :class:`~repro.core.translation.THINCDriver` (which
plugs into the window server as its video driver), the screen it hands
that driver, and any number of client sessions.  Display updates flow
through the staged pipeline of :mod:`repro.core.pipeline`: translated
commands are admitted once, scaled and compressed once per distinct
viewport on the shared **prepare plane**, and then fanned out to each
session, whose own state is only the scheduler-backed buffer, the
optional RC4 stream cipher (Section 7) and the flush machinery.  Updates are *pushed*: whenever
work is buffered the session schedules flush periods on the event loop
and commits as much as the non-blocking transport will take.

All per-client state lives in :class:`~repro.core.session_unit.
SessionUnit`; the server itself holds only the *shared planes* —
driver, prepare plane, governor, optional resilience
plane — plus the session list.  That split is what makes a server a
**shard**: units can leave one host frozen (:meth:`SessionUnit.freeze`)
and arrive at another via :meth:`THINCServer.thaw_session`, with
:mod:`repro.cluster` providing the fabric that moves them.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..codec import Encoding, EncoderPolicy
from ..display.driver import InputEvent, VideoStreamInfo
from ..display.pixmap import Drawable
from ..net.clock import EventLoop
from ..net.transport import Connection
from ..protocol import wire
from ..protocol.commands import (Command, CompositeCommand, RawCommand,
                                 VideoFrameCommand)
from ..protocol.limits import LIMITS
from ..region import Rect
from . import pipeline
from .fanout import BroadcastPlane
from .governor import Budget, Governor, ServerBudget
from .link_health import LinkHealth
from .qos import QosConfig, QosPlane, video_variants
from .resize import DisplayScaler, resample, scale_rect
from .scheduler import SRSFScheduler
from .session_unit import FLUSH_INTERVAL, FrozenSession, SessionUnit
from .translation import THINCDriver

__all__ = ["THINCServer", "SessionUnit", "FrozenSession",
           "ServerCostModel", "FLUSH_INTERVAL"]


class ServerCostModel:
    """Server CPU accounting for command preparation.

    Translation itself is almost free — that is the point of the design
    — but RAW payload compression is not (Section 8.3 observes THINC
    losing to cheap-codec systems on single-large-image pages exactly
    because of PNG compression time).  Rates are calibrated to the
    paper's dual-933 MHz PIII server.  Video frames are only copied,
    never re-encoded: the architectural win behind Figure 5.
    """

    png_bytes_per_second = 16e6  # PNG-model filter + DEFLATE
    rle_bytes_per_second = 120e6  # run-length pass, no entropy coder
    lossy_bytes_per_second = 28e6  # subsample + quantise + light DEFLATE
    copy_bytes_per_second = 400e6  # packetising video/audio payloads
    # Translation bookkeeping, once per command: a line of glyphs is one,
    # as when replayed from a pixmap.  Priced per glyph, its whole CPU
    # comes before its first byte (term_scroll sim latency p50/p90 +2.7 %).
    per_command = 2e-6

    def _raw_rate(self, encoding: int) -> float:
        if encoding == Encoding.RLE:
            return self.rle_bytes_per_second
        if encoding == Encoding.LOSSY:
            return self.lossy_bytes_per_second
        return self.png_bytes_per_second

    def cost(self, command) -> float:
        cpu = self.per_command
        if isinstance(command, RawCommand) \
                and command.encoding is not Encoding.NONE:
            cpu += command.pixels.nbytes / self._raw_rate(command.encoding)
        elif isinstance(command, CompositeCommand):
            cpu += command.pixels.nbytes / self.png_bytes_per_second
        elif isinstance(command, VideoFrameCommand):
            cpu += len(command.yuv_bytes) / self.copy_bytes_per_second
        return cpu


def _client_rect(session: SessionUnit, rect: Rect) -> Rect:
    """A video destination *rect* scaled by *session*'s viewport."""
    scaler = session.scaler
    return rect if scaler.identity else scale_rect(rect, scaler.sx, scaler.sy)


class THINCServer:
    """The THINC server core, acting as the translation layer's sink.

    Every translated command takes one dispatch path (:meth:`submit`):
    *route* → *QoS variant* → *posture classes*, each stage a no-op
    while its plane is idle, so fan-out, QoS and adaptive encoding
    compose instead of shadowing one another, and every receiver takes
    its prepared clone straight into its own buffer.  Every plane
    that adapts to a client's pipe reads the one :class:`~repro.core.
    link_health.LinkHealth` probe (``server.health``), whose thresholds
    are the server's single :class:`~repro.codec.EncoderPolicy` — a
    stock one when adaptive encoding is off.

    Three options are ablation switches, each kept for the claim rows
    of :mod:`repro.bench.claims` that need it: ``compress_raw``
    (``ablation.compression-*``), ``offscreen_awareness``
    (``ablation.offscreen-*``) and ``scheduler_factory``
    (``ablation.srsf-*``).
    """

    def __init__(self, loop: EventLoop, width: int, height: int,
                 compress_raw: bool = True,
                 offscreen_awareness: bool = True,
                 scheduler_factory: Callable[[], object] = SRSFScheduler,
                 encrypt_key: Optional[bytes] = None,
                 resilience=None,
                 budget: Optional[Budget] = None,
                 server_budget: Optional[ServerBudget] = None,
                 adaptive_encoding: bool = False,
                 qos: Optional[QosConfig] = None):
        self.loop = loop
        self.width = width
        self.height = height
        self.scheduler_factory = scheduler_factory
        self.encrypt_key = encrypt_key
        self.driver = THINCDriver(self, compress_raw=compress_raw,
                                  offscreen_awareness=offscreen_awareness)
        # The screen is the server's from the start, as an X server
        # hands its driver the screen at initialisation; the window
        # server built over this driver draws on it.
        self.driver.screen_drawable = Drawable(width, height, onscreen=True)
        # The translate stage's one counter: commands the driver
        # submitted into the dispatch path.
        self.commands_translated = 0
        # Content-adaptive, link-aware RAW encoding: the prepare plane
        # gets a codec policy plus the link probe as its posture hook.
        # Off by default — the paper's fixed PNG path stays the baseline.
        self.encoder_policy = EncoderPolicy() if adaptive_encoding else None
        self.health = LinkHealth(loop, self.encoder_policy or EncoderPolicy())
        self.plane = pipeline.PreparePlane(
            loop, ServerCostModel(), self.encoder_policy,
            self.health.posture, self._read_screen_pixels)
        self.sessions: List[SessionUnit] = []
        # Callback invoked with (session, InputMessage) for every input
        # event a client sends; the testbed wires this to the window
        # server and the workload's think-time logic.
        self.input_handler: Optional[Callable] = None
        # Session resilience plane (liveness, reconnect, resync); pass
        # a ResilienceConfig to enable.  Clients then attach through
        # ``server.resilience.accept`` instead of ``attach_client``.
        if resilience is not None:
            from .resilience import ResiliencePlane
            self.resilience = ResiliencePlane(self, resilience)
        else:
            self.resilience = None
        # Resource governance: per-session budgets enforced at the
        # queue/uplink chokepoints plus server-wide admission control.
        self.governor = Governor(self, budget, server_budget)
        # Broadcast fan-out plane: always constructed (the SUBSCRIBE
        # handler must exist), inert until the first subscriber.
        self.fanout = BroadcastPlane(self)
        # Adaptive QoS plane: degrade video before interactivity on
        # contended links.  Off by default — the paper's fixed-rate
        # video path stays the baseline, byte-for-byte.
        self.qos = QosPlane(self, qos) if qos is not None else None

    # -- session management -----------------------------------------------------

    def attach_client(self, connection: Connection,
                      viewport=None) -> SessionUnit:
        """Attach a client; a mid-session join receives the current
        screen contents (the mobility story: connect from any client,
        resume the same persistent session).

        Raises :class:`~repro.core.governor.AdmissionDenied` (after
        writing a typed :class:`~repro.protocol.wire.AttachDeniedMessage`
        down the connection) when the server is past its global
        admission budget."""
        # Active video streams need no replay: frames are self-contained
        # and the next one repaints the stream's destination.
        self.governor.admit(connection)
        return self._make_session(connection, viewport)

    def _make_session(self, connection: Connection, viewport=None,
                      token: int = 0) -> SessionUnit:
        session = SessionUnit(self, connection, viewport, token=token)
        self.sessions.append(session)
        self._submit_refresh(session)
        return session

    def detach_client(self, session: SessionUnit) -> None:
        """Forget *session*.  Its unit is detached too (idempotent: a
        frozen or evicted unit already is), or its flush loop would go
        on polling a pipe nobody reads.  Every plane keeps its state
        for the session on the unit, which goes with it: a redial with
        its token is a fresh attach."""
        session.detach()
        self.sessions.remove(session)

    def thaw_session(self, frozen: FrozenSession) -> SessionUnit:
        """Host a unit rebuilt by :meth:`SessionUnit.thaw` from its
        frozen surface, on the migration target.

        A view rectangle that does not fit this server's screen, or a
        token on a server with no resilience plane to guard it, raises
        :class:`~repro.protocol.wire.FieldRangeError` before any state
        is touched.  The resilience plane enrols the unit under its
        original token, so the client's redial resyncs exactly as it
        would after a network fault.
        """
        if not Rect(0, 0, self.width, self.height).contains(
                frozen.view_rect):
            raise wire.FieldRangeError(
                f"frozen view rect {frozen.view_rect} outside the "
                f"{self.width}x{self.height} screen")
        if frozen.token and self.resilience is None:
            raise wire.FieldRangeError(
                f"frozen token {frozen.token} on a server with no "
                f"resilience plane")
        session = SessionUnit.thaw(self, frozen)
        self.sessions.append(session)
        if frozen.token:
            self.resilience.enrol(session)
        return session

    def _read_screen_pixels(self, rect: Rect):
        """``rect -> pixels`` over the live screen, for the scale
        stage's COPY materialisation (tile walls, zoomed views)."""
        return self.driver.screen_drawable.fb.read_pixels(rect)

    def _submit_refresh(self, session: SessionUnit,
                        rect: Optional[Rect] = None) -> None:
        """Push current screen content for *rect* (whole screen when
        None) to one session as one RAW update.

        The refresh is never cut in advance: the flush stage splits it
        between PNG bands, from the room the socket has then, like any
        other large command.  A screen nothing has drawn on yet is the
        black every client framebuffer starts as, so it ships nothing.
        """
        screen = self.driver.screen_drawable
        if not screen.fb.pixels_drawn:
            return
        rect = screen.bounds if rect is None else rect
        session.submit(RawCommand(rect, screen.fb.read_pixels(rect),
                                  self.driver.raw_encoding))

    # -- UpdateSink interface (called by THINCDriver) ------------------------------

    def submit(self, command: Command) -> None:
        """The one dispatch path: route → QoS variant → posture classes
        (the last inside :meth:`PreparePlane.submit`)."""
        self.commands_translated += 1
        receivers = self.fanout.route(command, self.sessions)
        for group, variant in video_variants(self.qos, command, receivers):
            self.plane.submit(variant, group)

    def video_setup(self, stream: VideoStreamInfo) -> None:
        if self.qos is not None:
            self.qos.note_setup(stream)
        for session in self.sessions:
            session.queue_control(wire.VideoSetupMessage(
                stream.stream_id, stream.pixel_format,
                stream.src_width, stream.src_height,
                _client_rect(session, stream.dst_rect)))
            if self.qos is not None and session.qos_rung:
                # A stream born mid-congestion opens already degraded:
                # the descriptor rides right behind the VSETUP.
                session.queue_control(self.qos.quality_message(
                    stream.stream_id, session.qos_rung))

    def video_move(self, stream: VideoStreamInfo) -> None:
        if self.qos is not None:
            self.qos.note_move(stream)
        for session in self.sessions:
            session.queue_control(wire.VideoMoveMessage(
                stream.stream_id, _client_rect(session, stream.dst_rect)))

    def video_teardown(self, stream: VideoStreamInfo) -> None:
        # The stream's last frame stays on the screen.  A session that
        # was fed it transformed — on a degraded QoS rung, or cropped
        # and re-encoded for a 1:1 sub-view (a wall tile; a scaled view
        # never held exact pixels to begin with) — is owed those pixels
        # exactly, and no later frame will bring them.
        stale = [s for s in self.sessions if s.qos_rung or (
            (s.scaler.sx, s.scaler.sy) == (1.0, 1.0)
            and not s.scaler.identity)]
        if self.qos is not None:
            self.qos.note_teardown(stream.stream_id)
        for session in self.sessions:
            session.queue_control(
                wire.VideoTeardownMessage(stream.stream_id))
        rect = stream.dst_rect.intersect(Rect(0, 0, self.width, self.height))
        for session in stale if rect else ():
            self._submit_refresh(session, rect=rect)

    def cursor_set(self, pixels, hotspot) -> None:
        for session in self.sessions:
            img, (hx, hy) = pixels, hotspot
            if not session.scaler.identity:
                sx, sy = session.scaler.sx, session.scaler.sy
                w = max(1, int(round(img.shape[1] * sx)))
                h = max(1, int(round(img.shape[0] * sy)))
                img = resample(img, w, h)
                hx = min(int(hx * sx), w - 1)
                hy = min(int(hy * sy), h - 1)
            session.queue_control(wire.CursorImageMessage(
                hx, hy, img.shape[1], img.shape[0], img.tobytes()))

    def note_input(self, event: InputEvent) -> None:
        for session in self.sessions:
            session.note_input(event)

    # -- audio (Section 4.2's virtual audio driver feeds this) ---------------------

    def submit_audio(self, timestamp: float, samples: bytes) -> None:
        for session in self.sessions:
            session.queue_audio(timestamp, samples)

    # -- upstream traffic ------------------------------------------------------------

    def handle_client_message(self, session: SessionUnit, msg) -> None:
        if self.resilience is not None and \
                self.resilience.handle_session_message(session, msg):
            return
        if isinstance(msg, wire.ZoomRequestMessage):
            view = msg.rect.intersect(
                Rect(0, 0, self.width, self.height))
            if view.empty:
                view = None  # zoom out to the full desktop
            session.scaler = DisplayScaler((self.width, self.height),
                                           session.viewport,
                                           view_rect=view)
            # Push the content of the new view at its new resolution
            # ("the client ... requests updated content from the
            # server" when the display size increases).
            self._submit_refresh(session, rect=view)
            return
        if isinstance(msg, wire.SubscribeMessage):
            self.fanout.handle_subscribe(session, msg)
            return
        if isinstance(msg, wire.QosReportMessage):
            # Client-measured playback health (Section 8.2's quality
            # measures, computed where they are observable).  Recorded
            # only — the ladder is driven by the server's own link
            # probe, so a lying client cannot steer another session's
            # bandwidth share.
            if self.qos is not None:
                self.qos.note_report(session, msg)
            return
        if isinstance(msg, wire.RefreshRequestMessage):
            rect = msg.rect.intersect(self.driver.screen_drawable.bounds)
            if rect:
                self._submit_refresh(session, rect=rect)
            return
        if isinstance(msg, wire.ResizeMessage):
            # Never trust client geometry: the decode layer bounds it,
            # but this handler is also reachable with locally built
            # messages — clamp to [1, max_viewport_dim] so a degenerate
            # viewport can never reach the scaler's division.
            session.scaler = DisplayScaler(
                (self.width, self.height),
                (max(1, min(msg.width, LIMITS.max_viewport_dim)),
                 max(1, min(msg.height, LIMITS.max_viewport_dim))))
            # A resized tile no longer partitions the wall: a tile-wall
            # member that resizes stays on as a mirror.
            session.tile_mode = False
            # The client's framebuffer geometry changes, and it only has
            # a resampled version of the display — push the new geometry
            # and a full-screen refresh (Section 6: "the client requests
            # updated content from the server").
            session.queue_control(wire.ScreenInitMessage(*session.viewport))
            self._submit_refresh(session)
        elif isinstance(msg, wire.InputMessage):
            # Explicit INPUT dispatch (THL202): the old fall-through
            # also handed stray-but-parseable uplink frames (a
            # heartbeat on a plain session, a mid-stream reconnect
            # request) to the input handler as if they were input.
            if self.input_handler is not None:
                self.input_handler(session, msg)

    # -- diagnostics ----------------------------------------------------------------

    @property
    def stats(self) -> Dict[str, float]:
        """Headline server counters (CPU spent preparing, cache hit rate)."""
        plane = self.plane.stats
        out = {
            "cpu_time": plane["cpu_seconds"],
            "prepare_cache_hits": plane["cache_hits"],
            "prepare_cache_misses": plane["cache_misses"],
            "commands_translated": self.commands_translated,
            "sessions": len(self.sessions),
        }
        for key, value in self.governor.stats.items():
            out[f"governor_{key}"] = value
        if self.fanout.stats["subscribed"]:
            for key, value in self.fanout.stats.items():
                out[f"fanout_{key}"] = value
        if self.qos is not None:
            for key, value in self.qos.stats.items():
                out[f"qos_{key}"] = value
        return out

    def pipeline_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-stage counters across the whole pipeline.

        The shared stages (translate, prepare) are reported directly;
        the per-session ones (buffer, flush) are summed over attached
        sessions, ``queue_depth`` from each buffer's current length.
        """
        buffer = dict.fromkeys(("commands_in", "commands_out", "bytes_out",
                                "commands_split", "queue_depth"), 0)
        flush = {"flush_periods": 0, "bytes_out": 0}
        for session in self.sessions:
            for key in ("commands_in", "commands_out", "bytes_out",
                        "commands_split"):
                buffer[key] += session.buffer.stats[key]
            buffer["queue_depth"] += session.buffer.pending_commands()
            flush["flush_periods"] += session.stats["flush_periods"]
            flush["bytes_out"] += session.stats["bytes_sent"]
        return {
            "translate": {
                "commands_in": self.commands_translated,
                "driver_ops": self.driver.stats.get("driver_ops", 0),
            },
            "prepare": dict(self.plane.stats),
            "buffer": buffer,
            "flush": flush,
        }

    def pending(self) -> bool:
        return any(s.pending() for s in self.sessions)
