"""Per-session resource governance and server-wide admission control.

THINC's server-push design concentrates all state server-side: each
session owns a command queue, control/audio queues, and (when the
resilience plane is on) a replay journal.  Left unbounded, a single
hostile or broken client — one that never drains its buffer, streams
garbage uplink, or floods input events — can balloon or wedge the whole
single-threaded server.  The governor bounds every one of those
reservoirs with a per-session :class:`Budget` enforced lazily at the
existing chokepoints (``submit``/``enqueue_prepared`` →
``_add_to_buffer``, ``queue_control``, ``queue_audio``,
``_on_client_data``), so there are no timers and the simulation stays
deterministic.

Responses are graduated, mildest first:

* **degrade** — past the queue soft watermark the session sheds audio
  (``session.degraded``, which only this module writes: entered on a
  display add, exited after a flush); past the hard cap the queue is
  *coalesced*: dropped wholesale and replaced by one full-screen RAW
  refresh, which is cheaper than the backlog by the time the cap is
  hit (the same replay-vs-snapshot economics the resilience plane uses
  for resync).
* **throttle** — uplink messages pass through a token bucket; messages
  beyond the refill rate are dropped (input is best-effort by nature).
* **evict** — protocol abuse (wire decode failures past the error
  budget on a resilient session, or the *first* failure on a plain
  one), sustained uplink flooding, a re-ballooning queue right after a
  coalesce, or an unshrinkable control backlog quarantine the session:
  a typed :class:`~repro.protocol.wire.AttachDeniedMessage` is written
  down the pipe and the session is detached from the server.  A
  quarantined session never crashes or stalls the loop.

Server-wide, :class:`ServerBudget` gates ``attach_client``: past the
global session count or buffered-byte budget the attach is refused
with the same typed denial on the wire plus an :class:`AdmissionDenied`
raised to the caller.  Aggregate counters live in the governor's
``stats`` dict, merged into ``server.stats`` under ``governor_``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..protocol import wire
from .qos import MAX_RUNG

__all__ = ["Budget", "ServerBudget", "SessionMeter", "Governor",
           "AdmissionDenied"]

#: Seconds after a coalesce during which hitting the hard cap again
#: means coalescing is not working: evict instead of thrashing.
COALESCE_COOLDOWN = 1.0

#: Total throttled-away uplink messages after which the flood is
#: adjudged hostile and the session is evicted.
MAX_UPLINK_DROPPED = 20_000

#: Wire decode failures a *resilient* session may accumulate before
#: quarantine (lossy links corrupt honest traffic; the resync machinery
#: absorbs occasional garbage).  Plain sessions are quarantined on
#: their first decode failure.
MAX_UPLINK_ERRORS = 256

#: Total display-command bytes buffered across all sessions past which
#: new attaches are refused (existing sessions are governed by their
#: own budgets).
MAX_TOTAL_QUEUE_BYTES = 256 << 20


class AdmissionDenied(RuntimeError):
    """``attach_client`` refused by the governor's admission control.

    The typed wire denial has already been written to the connection
    when this is raised; the exception carries the same reason code so
    in-process callers need not parse their own stream.
    """

    def __init__(self, reason: int, retry_after: float):
        super().__init__(f"attach denied (reason {reason}, "
                         f"retry after {retry_after}s)")
        self.reason = reason
        self.retry_after = retry_after


@dataclass(frozen=True)
class Budget:
    """Per-session resource bounds.

    Defaults are generous for honest traffic — an honest session under
    the reference workloads stays an order of magnitude below every
    line — while still bounding what a hostile client can pin.  The
    fuzz harness (:mod:`repro.fuzz.harness`) sets tighter ones, so a
    run climbs the whole ladder.
    """

    #: Soft watermark on buffered display-command bytes: past it the
    #: session enters degraded mode (audio shed, coalescing does the
    #: rest); it exits below half this value.
    degrade_queue_bytes: int = 8 << 20

    #: Hard cap on buffered display-command bytes: past it the queue is
    #: coalesced to a full-screen RAW refresh.
    max_queue_bytes: int = 32 << 20

    #: Absolute ceiling: a queue still past this (or re-ballooning
    #: within ``COALESCE_COOLDOWN``) evicts the session.
    evict_queue_bytes: int = 64 << 20

    #: Cap on framed audio bytes queued and not yet flushed; the oldest
    #: chunks are shed first (late audio is worthless).
    max_audio_backlog_bytes: int = 1 << 20

    #: Cap on framed control-message bytes queued and not yet flushed.
    #: Control cannot be shed safely (order-sensitive lifecycles), so
    #: exceeding it evicts.
    max_control_backlog_bytes: int = 4 << 20

    #: Cap on the resilience replay journal, overriding (when smaller)
    #: the plane's own snapshot-derived limit.
    max_journal_bytes: int = 16 << 20

    #: Uplink token bucket: sustained messages/second allowed, and the
    #: burst the bucket holds.  Messages beyond it are dropped.
    uplink_msgs_per_sec: float = 1000.0
    uplink_burst: int = 2000


@dataclass(frozen=True)
class ServerBudget:
    """Server-wide admission bounds."""

    #: Sessions the server will hold at once (attached or detached).
    max_sessions: int = 64

    #: Retry hint carried by admission denials.
    retry_after: float = 1.0


class SessionMeter:
    """Per-session governance clocks: token bucket and ladder position.
    Byte gauges, the ``degraded`` and ``quarantined`` flags and the
    abuse tallies (``stats["uplink_dropped"]``, ``stats["wire_errors"]``)
    live on the session itself; the meter holds only what the ladder
    needs to remember between checks."""

    __slots__ = ("tokens", "last_refill", "last_coalesce")

    def __init__(self, budget: Budget, now: float):
        self.tokens = float(budget.uplink_burst)
        self.last_refill = now
        self.last_coalesce: Optional[float] = None


class Governor:
    """The response ladder and admission control.  Each session unit
    carries its own :class:`SessionMeter` (``session.meter``)."""

    def __init__(self, server, budget: Optional[Budget] = None,
                 server_budget: Optional[ServerBudget] = None):
        self.server = server
        self.loop = server.loop
        self.budget = budget or Budget()
        self.server_budget = server_budget or ServerBudget()
        self.stats = dict.fromkeys(
            ("admitted", "admission_denied", "quarantined", "evicted",
             "degrade_entered", "degrade_exited", "coalesces", "audio_shed",
             "uplink_throttled", "wire_errors", "denials_written",
             "video_rungs_shed"), 0)

    # -- session lifecycle ---------------------------------------------------

    def check_admission(self) -> Optional[int]:
        """The denial reason a fresh attach would receive, or None.

        Non-raising form for callers with their own denial wire format
        (the resilience plane answers with a ReconnectDeniedMessage).
        """
        sessions = self.server.sessions
        if len(sessions) >= self.server_budget.max_sessions:
            return wire.DENY_SERVER_FULL
        total = sum(s.buffer.pending_bytes() for s in sessions)
        if total > MAX_TOTAL_QUEUE_BYTES:
            return wire.DENY_SERVER_FULL
        return None

    def admit(self, connection) -> None:
        """Admission control for a fresh attach.

        Writes a typed denial to *connection* and raises
        :class:`AdmissionDenied` when the server is past its global
        budget; returns silently otherwise.
        """
        reason = self.check_admission()
        if reason is not None:
            self._deny(connection, reason)
        self.stats["admitted"] += 1

    def _deny(self, connection, reason: int) -> None:
        retry = self.server_budget.retry_after
        self._write_denial(connection, reason, retry)
        self.stats["admission_denied"] += 1
        raise AdmissionDenied(reason, retry)

    def _write_denial(self, connection, reason: int,
                      retry_after: float) -> None:
        if connection is None or connection.closed:
            return
        data = wire.encode_message(
            wire.AttachDeniedMessage(reason, retry_after))
        if connection.down.writable_bytes() >= len(data):
            connection.down.write(data)
            self.stats["denials_written"] += 1

    # -- uplink chokepoint ---------------------------------------------------

    def allow_uplink(self, session) -> bool:
        """Token-bucket gate for one parsed uplink message.

        Returns False when the message should be dropped, counting it in
        the session's ``uplink_dropped``; a sustained flood past
        ``MAX_UPLINK_DROPPED`` evicts the sender.
        """
        stats = session.stats
        if session.quarantined:
            stats["uplink_dropped"] += 1
            return False
        meter = session.meter
        b = self.budget
        now = self.loop.now
        meter.tokens = min(
            float(b.uplink_burst),
            meter.tokens + (now - meter.last_refill) * b.uplink_msgs_per_sec)
        meter.last_refill = now
        if meter.tokens >= 1.0:
            meter.tokens -= 1.0
            return True
        stats["uplink_dropped"] += 1
        self.stats["uplink_throttled"] += 1
        if stats["uplink_dropped"] > MAX_UPLINK_DROPPED:
            self.quarantine(session, wire.DENY_SESSION_BUDGET,
                            evicted=True)
        return False

    def on_wire_error(self, session, exc: Exception) -> None:
        """A decode failure on *session*'s uplink stream.

        Plain sessions are quarantined immediately: without a
        resilience plane there is no resync story, and garbage framing
        means every subsequent byte is suspect.  Resilient sessions get
        a fresh parser (heartbeats repeat; corruption on a lossy link
        is expected) until the error budget runs out.
        """
        session.stats["wire_errors"] += 1
        self.stats["wire_errors"] += 1
        if self.server.resilience is not None and session.token and \
                session.stats["wire_errors"] <= MAX_UPLINK_ERRORS:
            session.reset_parser()
            return
        self.quarantine(session, wire.DENY_QUARANTINED)

    # -- outgoing-reservoir chokepoints --------------------------------------

    def after_display_add(self, session) -> None:
        """Queue-bytes ladder, run after every buffered display add."""
        if session.quarantined:
            return
        if session.detached and self.server.resilience is not None:
            # A detached-but-guarded session belongs to the resilience
            # plane: its tick drops the queue (keeping the session
            # resurrectable) once pending crosses the same budget line.
            # Coalescing or evicting here would destroy a session the
            # plane still intends to resync.
            return
        b = self.budget
        pending = session.buffer.pending_bytes()
        now = self.loop.now
        if pending > b.max_queue_bytes:
            last = session.meter.last_coalesce
            recently = last is not None and now - last < COALESCE_COOLDOWN
            if pending > b.evict_queue_bytes or recently:
                self.quarantine(session, wire.DENY_SESSION_BUDGET,
                                evicted=True)
                return
            self._coalesce(session, now)
            return
        if pending > b.degrade_queue_bytes:
            qos = self.server.qos
            if qos is not None and not session.degraded \
                    and session.qos_rung < MAX_RUNG:
                # QoS-class-aware shed order: video rungs are spent
                # before the degrade stage (which sheds audio) may
                # engage.  While the ladder has headroom the session
                # is never degraded — a rate-limited step just waits
                # for the next poll interval.
                if qos.shed_video(session):
                    self.stats["video_rungs_shed"] += 1
                return
            if not session.degraded:
                session.degraded = True
                self.stats["degrade_entered"] += 1

    def after_flush(self, session) -> None:
        """Degrade exit, evaluated after each flush of a degraded
        session: it leaves degraded mode once the backlog is below half
        the soft watermark."""
        if session.buffer.pending_bytes() < \
                self.budget.degrade_queue_bytes // 2:
            session.degraded = False
            self.stats["degrade_exited"] += 1

    def _coalesce(self, session, now: float) -> None:
        """Replace a runaway queue with a full-screen RAW refresh.

        By the time the hard cap is hit the backlog costs more than
        repainting the screen outright — the same economics that make
        the resilience plane prefer a snapshot over a long replay.
        The refresh is one RAW; the flush cuts it between PNG bands to
        fit a congested pipe, as it does any large command.
        """
        session.meter.last_coalesce = now
        session.buffer.queue.clear()
        self.stats["coalesces"] += 1
        self.server._submit_refresh(session)

    def after_audio_add(self, session) -> None:
        """Shed the oldest audio past the backlog cap (late audio is
        worthless; bytes are better spent on display)."""
        b = self.budget
        while session.audio_backlog_bytes > b.max_audio_backlog_bytes \
                and session._audio:
            session.drop_oldest_audio()
            self.stats["audio_shed"] += 1

    def after_control_add(self, session) -> None:
        """Control messages cannot be shed (order-sensitive stream and
        video lifecycles ride them); a session that cannot drain them
        is evicted before the backlog becomes the server's problem."""
        if session.control_backlog_bytes > \
                self.budget.max_control_backlog_bytes:
            self.quarantine(session, wire.DENY_SESSION_BUDGET,
                            evicted=True)

    # -- the terminal rung ---------------------------------------------------

    def quarantine(self, session, reason: int,
                   evicted: bool = False) -> None:
        """Detach *session* and refuse its future traffic.

        Never raises: quarantining happens inside data callbacks where
        an escaping exception would kill the event loop — the exact
        failure mode this module exists to prevent.
        """
        if session.quarantined:
            return
        session.quarantined = True
        self.stats["quarantined"] += 1
        if evicted:
            self.stats["evicted"] += 1
        # The denial rides the session's own framing path (CHECKED
        # wrapper, RC4 keystream) so an attached client parses it like
        # any other message instead of seeing stream garbage.
        conn = session.connection
        if conn is not None and not conn.closed:
            data = session._frame(wire.AttachDeniedMessage(
                reason, self.server_budget.retry_after))
            if session._writer.writable_bytes() >= len(data):
                session._writer.write(data)
                self.stats["denials_written"] += 1
        session.detach()
        if session in self.server.sessions:
            self.server.detach_client(session)
