"""Adaptive QoS plane: spend video fidelity before interactivity.

THINC's delivery stack already has the right *primitives* for a
contended link — video frames are self-contained and overwrite their
destination completely (Section 4.2: "frames can simply be dropped"),
the scheduler favours real-time regions, and the governor sheds audio
before display.  What the fixed-rate path lacks is a *policy* that
notices congestion early and sacrifices the most elastic traffic class
first.  This plane supplies it: per session, video walks a seeded,
hysteresis-guarded degradation ladder while interactive updates keep
their latency, and symmetric ramp-up restores full-rate video once the
link clears.

The ladder (rung 0 is the paper's fixed-rate path, byte-identical):

====  ==========================================================
rung  video treatment
====  ==========================================================
0     full-rate YV12 passthrough (the unmodified command object)
1     cadence halving — frames whose number is off the divisor
      grid are dropped before they cost wire bytes
2     rung 1 plus resolution step-down: the frame is decoded,
      nearest-neighbour scaled by ``1 >> scale_shift`` (even
      dimensions preserved for the planar formats) and re-encoded;
      the client's own VFRAME scaling stretches it back over the
      unchanged destination rectangle, so *no wire change at all*
      is needed for reduced-resolution frames
3     rung 2 plus a flat quantiser squeeze on the RGB surface
      before re-encode — the chroma/detail loss DEFLATEs away
====  ==========================================================

Classification is structural: INTERACTIVE traffic (display commands,
control, input echo) never passes through this plane — only
:class:`~repro.protocol.commands.VideoFrameCommand` does — and AUDIO
sits between them via the governor's ladder: a whole video rung is
spent before the degrade stage (which sheds audio) may engage.

Two deliberate design points keep the plane simulation-friendly:

* **No timers.**  Congestion is polled lazily when video frames pass
  through, rate-limited to the configured interval, so an idle server
  schedules nothing and ``run_until_idle`` terminates.  All time comes
  from the :class:`~repro.net.clock.EventLoop` clock.
* **Controller state on the unit, never migrated.**  Hysteresis
  counters, poll clocks and the seeded ramp-up jitter live in
  ``SessionUnit.qos_state``, made on the first poll and gone with the
  unit; ``NOT_SERIALIZED`` keeps them off the frozen surface.  Only
  the rung itself (``SessionUnit.qos_rung``) migrates; a thawed
  session re-derives its hysteresis from live measurements.

Every rung change is announced to the client with a
``VIDEO_QUALITY`` descriptor, and recovery to rung 0 triggers a
lossless refresh of each active stream's destination so convergence
back to pixel-exact content never depends on the video source still
producing frames.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..protocol import wire
from ..protocol.commands import VideoFrameCommand
from ..protocol.limits import LIMITS
from ..region import Rect
from ..video import yuv
from .link_health import PROBE_INTERVAL, PROBE_WINDOW

__all__ = ["QosConfig", "QosPlane", "MAX_RUNG", "video_variants"]

#: Deepest ladder rung; mirrors the wire bound so a descriptor for any
#: reachable rung always encodes.
MAX_RUNG = LIMITS.max_qos_rung

# The *end-to-end* congestion signal (:meth:`QosPlane.on_report`): a
# delivery gap this many frames above its low-water mark counts as
# evidence, and recovery stays blocked for the hold after it.
_REPORT_GAP = 2  # frames
_REPORT_HOLD = 0.5  # seconds


@dataclass(frozen=True)
class QosConfig:
    """Tunables for the adaptive QoS plane.

    ``degrade_polls`` consecutive congested polls step the ladder down
    one rung; ``recover_polls`` consecutive clear polls (plus a seeded
    jitter of up to ``recover_jitter`` extra polls, so a fleet of
    sessions does not ramp up in lockstep and re-congest the link)
    step it back up.  The congestion verdict, its poll cadence and its
    rate window are not configured here: they are the server's one
    :class:`~repro.core.link_health.LinkHealth` probe, the same one
    the adaptive encoder reads.
    """

    degrade_polls: int = 2
    recover_polls: int = 6
    recover_jitter: int = 2
    fps_divisor: int = 2
    scale_shift: int = 1
    qstep: int = 8
    seed: int = 0

    def __post_init__(self):
        if not 2 <= self.fps_divisor <= LIMITS.max_fps_divisor:
            raise ValueError(
                f"fps_divisor must be in [2, {LIMITS.max_fps_divisor}]")
        if not 1 <= self.scale_shift <= LIMITS.max_scale_shift:
            raise ValueError(
                f"scale_shift must be in [1, {LIMITS.max_scale_shift}]")
        if not 1 <= self.qstep <= LIMITS.max_qos_qstep:
            raise ValueError(
                f"qstep must be in [1, {LIMITS.max_qos_qstep}]")
        if self.degrade_polls < 1 or self.recover_polls < 1:
            raise ValueError("hysteresis poll counts must be >= 1")
        if self.recover_jitter < 0:
            raise ValueError("recover_jitter must be >= 0")


class _SessionQos:
    """QoS controller state for one session, held on the unit as
    ``qos_state`` (never serialized; a migrated session re-derives all
    of this from live polls)."""

    __slots__ = ("congested", "clear", "last_poll", "last_step",
                 "grace_until", "recover_block_until", "submitted",
                 "base_gap", "rng", "recover_target")

    def __init__(self, rng: random.Random, recover_polls: int,
                 jitter: int):
        self.congested = 0
        self.clear = 0
        self.last_poll = -1e9
        self.last_step = -1e9
        self.grace_until = -1e9
        self.recover_block_until = -1e9
        # Per-stream frames this server actually submitted for the
        # session, and the smallest delivery gap any QOS_REPORT has
        # shown (the low-water mark congestion is judged against).
        self.submitted: Dict[int, int] = {}
        self.base_gap: Dict[int, int] = {}
        self.rng = rng
        self.recover_target = recover_polls + rng.randrange(jitter + 1)

    def reroll(self, recover_polls: int, jitter: int) -> None:
        self.recover_target = recover_polls + self.rng.randrange(jitter + 1)


class QosPlane:
    """Per-session video degradation ladder over the flush boundary."""

    def __init__(self, server, config: Optional[QosConfig] = None):
        self.server = server
        self.loop = server.loop
        self.config = config or QosConfig()
        self._order = 0
        #: Active stream destinations (server coordinates), fed by the
        #: driver's setup/move hooks and lazily by passing frames; the
        #: recovery refresh repaints exactly these rectangles.
        self.streams: Dict[int, Rect] = {}
        #: Latest client quality report per stream id.
        self.reports: Dict[int, wire.QosReportMessage] = {}
        self.stats: Dict[str, float] = {
            "polls": 0,
            "frames_passed": 0,
            "frames_dropped": 0,
            "frames_degraded": 0,
            "rungs_down": 0,
            "rungs_up": 0,
            "governor_sheds": 0,
            "recoveries": 0,
            "descriptors_sent": 0,
            "reports": 0,
            "report_lag_events": 0,
            "playback_quality": 1.0,
            "audio_quality": 1.0,
            "av_sync_skew": 0.0,
        }

    # -- controller state ----------------------------------------------------

    def _state(self, session) -> _SessionQos:
        state = session.qos_state
        if state is None:
            # Seeded per registration order (the FaultyEndpoint idiom):
            # the same attach sequence always yields the same ramp-up
            # jitter, so chaos scenarios replay from their seed alone.
            rng = random.Random(zlib.crc32(
                f"{self.config.seed}|{self._order}".encode("utf-8")))
            self._order += 1
            state = _SessionQos(rng, self.config.recover_polls,
                                self.config.recover_jitter)
            session.qos_state = state
        return state

    def _poll(self, session, now: float) -> None:
        cfg = self.config
        state = self._state(session)
        if now - state.last_poll < PROBE_INTERVAL:
            return
        state.last_poll = now
        self.stats["polls"] += 1
        if now < state.grace_until:
            # A just-sent recovery refresh pollutes the measurement
            # window with our own burst; hold position until it ages
            # out rather than re-degrading on self-inflicted load.
            return
        if self.server.health.congested(session):
            state.clear = 0
            state.congested += 1
            if state.congested >= cfg.degrade_polls:
                state.congested = 0
                self._step_down(session, now)
        else:
            if now < state.recover_block_until:
                # A recent QOS_REPORT showed end-to-end lag: the local
                # probe's clear verdict only covers the first hop, so
                # neither ramp up nor erase the report's congestion
                # evidence until the reports go quiet.
                state.clear = 0
                return
            state.congested = 0
            if session.qos_rung == 0:
                return
            state.clear += 1
            if state.clear >= state.recover_target:
                state.clear = 0
                self._step_up(session, now)

    # -- ladder steps --------------------------------------------------------

    def _step_down(self, session, now: float) -> bool:
        if session.qos_rung >= MAX_RUNG:
            return False
        state = self._state(session)
        if now - state.last_step < PROBE_INTERVAL:
            return False  # one rung per interval: never skip rungs
        state.last_step = now
        state.clear = 0
        session.qos_rung += 1
        self.stats["rungs_down"] += 1
        self._announce(session)
        return True

    def _step_up(self, session, now: float) -> None:
        if session.qos_rung <= 0:
            return
        state = self._state(session)
        state.last_step = now
        session.qos_rung -= 1
        state.reroll(self.config.recover_polls, self.config.recover_jitter)
        self.stats["rungs_up"] += 1
        self._announce(session)
        if session.qos_rung == 0:
            self._recover(session)
            # The refresh burst must transmit and then age out of the
            # rate-probe window before verdicts are trustworthy again.
            state.grace_until = now + 2.0 * PROBE_WINDOW + PROBE_INTERVAL

    def _recover(self, session) -> None:
        """Back to rung 0: repaint each stream's destination lossless.

        The next full-rate frame would repaint it too (VFRAME is a
        complete overwrite), but the refresh makes pixel-exact
        convergence unconditional — a video source that stopped
        producing mid-recovery leaves no stale degraded pixels behind.
        """
        self.stats["recoveries"] += 1
        screen = self.server.driver.screen_drawable
        for rect in self.streams.values():
            rect = rect.intersect(screen.bounds)
            if rect:
                self.server._submit_refresh(session, rect=rect)

    def shed_video(self, session) -> bool:
        """Governor hook: spend one whole video rung before the
        degrade (audio-shedding) stage may engage.  Rate-limited to
        one rung per poll interval so a single queue spike cannot
        race the ladder to the bottom."""
        stepped = self._step_down(session, self.loop.now)
        if stepped:
            self.stats["governor_sheds"] += 1
        return stepped

    # -- descriptors ---------------------------------------------------------

    def descriptor(self, rung: int) -> tuple:
        """``(fps_divisor, scale_shift, qstep)`` announced for *rung*."""
        cfg = self.config
        return (cfg.fps_divisor if rung >= 1 else 1,
                cfg.scale_shift if rung >= 2 else 0,
                cfg.qstep if rung >= 3 else 0)

    def quality_message(self, stream_id: int,
                        rung: int) -> wire.VideoQualityMessage:
        divisor, shift, qstep = self.descriptor(rung)
        return wire.VideoQualityMessage(stream_id, rung, divisor,
                                        shift, qstep)

    def _announce(self, session) -> None:
        for stream_id in self.streams:
            session.queue_control(
                self.quality_message(stream_id, session.qos_rung))
            self.stats["descriptors_sent"] += 1

    # -- stream lifecycle (driven by THINCServer's driver hooks) -------------

    def note_setup(self, stream) -> None:
        self.streams[stream.stream_id] = stream.dst_rect

    def note_move(self, stream) -> None:
        self.streams[stream.stream_id] = stream.dst_rect

    def note_teardown(self, stream_id: int) -> None:
        """A stream ended.  Polls ride on passing frames, so with no
        stream left a session would keep its degraded rung for ever:
        put it back on rung 0 (``THINCServer.video_teardown`` repaints
        the rectangle its last squeezed or skipped frame left stale)."""
        self.streams.pop(stream_id, None)
        for session in self.server.sessions:
            if session.qos_rung and not self.streams:
                session.qos_rung = 0
                self.stats["rungs_up"] += 1

    def note_report(self, session, msg: wire.QosReportMessage) -> None:
        """Record a client's QOS_REPORT (Section 8.2's quality measures
        computed at the client, reported upstream) and mine it for the
        end-to-end congestion signal.

        The local probe only sees this server's own transport; behind a
        relay tier the contended access link is invisible to it.  The
        report's ``frames_received`` closes that gap: the server knows
        how many frames it submitted for each stream, so a delivery
        gap (frames submitted minus frames the client acknowledges)
        sitting ``_REPORT_GAP`` frames above its low-water mark means
        frames are queuing somewhere downstream — e.g. on a relay's
        thin access link.  The signal is deliberately asymmetric — it
        can push the ladder down and block recovery (for
        ``_REPORT_HOLD`` seconds), never ramp it up — so a client
        fabricating reports can only degrade its own video.
        """
        self.reports[msg.stream_id] = msg
        self.stats["reports"] += 1
        self.stats["playback_quality"] = msg.playback_quality
        self.stats["audio_quality"] = msg.audio_quality
        self.stats["av_sync_skew"] = msg.av_skew
        state = self._state(session)
        submitted = state.submitted.get(msg.stream_id)
        if submitted is None:
            return  # no frames of this stream sent by this server yet
        gap = submitted - msg.frames_received
        base = state.base_gap.get(msg.stream_id)
        if base is None or gap < base:
            state.base_gap[msg.stream_id] = base = gap
        if gap - base < _REPORT_GAP:
            return
        now = self.loop.now
        state.recover_block_until = now + _REPORT_HOLD
        state.clear = 0
        state.congested += 1
        self.stats["report_lag_events"] += 1
        if state.congested >= self.config.degrade_polls:
            state.congested = 0
            self._step_down(session, now)

    # -- the dispatch boundary -----------------------------------------------

    def variants(self, command: VideoFrameCommand, sessions):
        """One video frame as ``(group, frame)`` per distinct frame
        object among *sessions*' ladder rungs.

        Rung-0 sessions receive the *original command object* — an
        uncontended server with QoS enabled is byte-identical to one
        without it — and so do rung-1 sessions on the cadence grid, in
        the same group, so the prepare plane sees the object once.
        Deeper rungs share one transformed variant per rung, so
        same-rung fan-out pays the re-encode once; sessions whose frame
        falls off the cadence grid are in no group at all.
        """
        now = self.loop.now
        self.streams.setdefault(command.stream_id, command.dest)
        rungs: Dict[int, List] = {}
        for session in sessions:
            self._poll(session, now)
            rungs.setdefault(session.qos_rung, []).append(session)
        groups: Dict[int, tuple] = {}  # id(frame) -> (group, frame)
        for rung in sorted(rungs):
            members = rungs[rung]
            if rung and command.frame_no % self.config.fps_divisor != 0:
                # Cadence rung: off-grid frames die before costing
                # wire bytes (VFRAME overwrites completely, so a
                # dropped frame is pure savings, never corruption).
                self.stats["frames_dropped"] += len(members)
                continue
            self.stats["frames_degraded" if rung else "frames_passed"] \
                += len(members)
            self._count_submitted(members, command.stream_id)
            frame = self._transform(command, rung)
            groups.setdefault(id(frame), ([], frame))[0].extend(members)
        return list(groups.values())

    def _count_submitted(self, group, stream_id: int) -> None:
        # Ground truth for the report-gap signal: frames this server
        # actually put on each session's path (cadence drops excluded).
        for session in group:
            sub = self._state(session).submitted
            sub[stream_id] = sub.get(stream_id, 0) + 1

    def _transform(self, command: VideoFrameCommand,
                   rung: int) -> VideoFrameCommand:
        """The rung's video treatment; rung 1 passes frames untouched
        (cadence alone), deeper rungs decode/squeeze/re-encode."""
        if rung <= 1:
            return command
        cfg = self.config
        rgba = yuv.decode_frame(command.pixel_format, command.yuv_bytes,
                                command.src_width, command.src_height)
        # Even dimensions (floor 2) keep every planar format legal.
        width = max(2, (command.src_width >> cfg.scale_shift) & ~1)
        height = max(2, (command.src_height >> cfg.scale_shift) & ~1)
        rgb = yuv.scale_rgb(rgba, width, height)[..., :3]
        if rung >= 3:
            q = cfg.qstep
            rgb = np.minimum((rgb.astype(np.int32) // q) * q + q // 2,
                             255).astype(np.uint8)
        return VideoFrameCommand(
            command.stream_id, command.dest, width, height,
            yuv.encode_frame(command.pixel_format, rgb),
            frame_no=command.frame_no,
            pixel_format=command.pixel_format)


def video_variants(plane: Optional[QosPlane], command, sessions):
    """The dispatch path's *QoS variant* stage: ``(group, command)``
    pairs.  Traffic classification happens here: only the VIDEO class
    on a QoS server splits by ladder rung; INTERACTIVE display commands
    — and everything on a server without the plane — pass as one group
    carrying the original object, so their latency is never taxed."""
    if plane is None or not isinstance(command, VideoFrameCommand):
        return ((sessions, command),)
    return plane.variants(command, sessions)
