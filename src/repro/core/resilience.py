"""The session resilience plane: liveness, reconnect, resync.

THINC's push delivery assumes a live pipe; this plane makes sessions
survive the pipe failing.  The design leans on the paper's own
command-queue semantics (Section 4): the per-region queues always hold
exactly the commands needed to reconstruct current screen contents, so
recovering a client is a *replay*, not a framebuffer retransmit.

Server side (:class:`ResiliencePlane`):

* **Liveness** — clients heartbeat with a cumulative ack; a quiet
  client is *detached* after ``liveness_timeout``.  Detached sessions
  stop flushing but keep absorbing display updates (eviction keeps the
  queue minimal).  If traffic resumes on the same connection the
  session re-attaches in place; otherwise the client dials back.
* **Detach window** — after ``detach_window`` of absence the queue and
  replay log are dropped and further display buffering is shed; the
  eventual resync falls back to a full-screen RAW snapshot.
* **Resync by replay** — every sent frame is wrapped in a CHECKED
  sequence wrapper and journaled (plaintext) on the session unit,
  pruned by the client's acks.  On reconnect the client names its last
  applied sequence; the plane replays the unacked suffix and then the
  surviving queue flushes normally.  Replay is only chosen when its
  byte cost is at most a full-screen RAW snapshot's, so "replay bytes
  <= full-screen RAW bytes" holds by construction.  Replay duplication
  is benign: the client skips sequences it already applied, which is
  what makes non-idempotent COPY safe.
* **Backoff** — reconnect accepts are spaced by exponential backoff
  with deterministic seeded jitter; too-early attempts are denied with
  a retry-after hint.
* **Degradation** — not this plane's: a resilient session under
  back-pressure is degraded (audio shed) by the governor's queue-bytes
  ladder exactly like a plain one (``Budget.degrade_queue_bytes``).

Client side (:class:`ResilientClient`) wraps a
:class:`~repro.core.client.THINCClient` with the mirror duties:
heartbeating, server-liveness detection, dialling with its own
backoff, the plaintext reconnect prelude, and turning wire corruption
(a typed :class:`~repro.protocol.wire.ProtocolError`) into a reconnect
instead of a crash.

Everything is driven by the deterministic event loop and explicitly
seeded RNGs, so a whole chaos scenario — faults, backoff jitter, all
of it — replays identically from its seeds.  Note the plane and the
client run perpetual timers: drive these simulations with
``run_until(t)``, not ``run_until_idle``.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from ..net.transport import Connection
from ..protocol import wire
from .client import THINCClient

__all__ = ["ResilienceConfig", "SessionGuard", "ResiliencePlane",
           "ResilientClient", "read_prelude", "write_prelude"]

# Headroom added to raw pixel bytes when costing a full-screen RAW
# snapshot: frame/CHECKED headers per flushed piece plus zlib's
# worst-case expansion on incompressible content.
_SNAPSHOT_SLACK = 4096

# Reconnect backoff, both sides: the ceiling on the exponential delay,
# and how close together two accepts must be to escalate it.
_BACKOFF_MAX = 8.0  # seconds
_FLAP_WINDOW = 1.0  # seconds

#: Seed of the plane's backoff jitter (each client seeds its own).
PLANE_SEED = 0


@dataclass
class ResilienceConfig:
    """Tunables for both sides of the resilience protocol."""

    heartbeat_interval: float = 0.25
    liveness_timeout: float = 1.0
    check_interval: float = 0.1
    detach_window: float = 5.0
    backoff_base: float = 0.25
    backoff_jitter: float = 0.25
    # Token namespacing for sharded deployments: shard *i* of *N* runs
    # with ``token_start=i+1, token_stride=N`` so freshly issued tokens
    # never collide across shards, while adopted (migrated) tokens keep
    # their original value — the token is the session's cluster-wide
    # identity.
    token_start: int = 1
    token_stride: int = 1


#: Prelude frames are tiny; a header declaring more is garbage.
MAX_PRELUDE = 4096


def write_prelude(endpoint, msg) -> None:
    """Send *msg* as a dial prelude: one CHECKED frame with sequence
    number 0, in the clear, written whole or not at all.

    The prelude is the first frame each way on a dialled connection
    (the reconnect request one way, the accept or denial the other),
    sent before the stream may switch to RC4.  In the clear a few
    flipped bytes could otherwise still parse as a *valid but wrong*
    request or answer (wrong token, wrong resync mode); the CRC turns
    that whole class into garbage :func:`read_prelude` refuses.
    """
    data = wire.wrap_checked(wire.encode_message(msg), 0)
    if endpoint.writable_bytes() >= len(data):
        endpoint.write(data)


def read_prelude(endpoint, on_frame, on_garbage) -> None:
    """Take exactly one prelude frame off *endpoint*.

    A stream parser cannot be used: it would go on to parse the
    possibly ciphered tail.  The receiver this connects buffers until
    one frame is complete, disconnects, and calls ``on_frame(message,
    frame, rest)`` with the CHECKED frame's inner message, the frame's
    bytes as received and whatever arrived after it, untouched, for
    whoever owns the stream next.  A header declaring more than
    :data:`MAX_PRELUDE` bytes, a frame that does not parse, or one that
    is not CHECKED disconnects and calls ``on_garbage()`` instead.
    """
    buffer = bytearray()

    def on_data(chunk: bytes) -> None:
        buffer.extend(chunk)
        if len(buffer) < wire.FRAME_OVERHEAD:
            return
        length = int.from_bytes(buffer[1:5], "big")
        end = wire.FRAME_OVERHEAD + length
        if length <= MAX_PRELUDE and len(buffer) < end:
            return
        endpoint.disconnect()
        frame, checked = bytes(buffer[:end]), None
        if length <= MAX_PRELUDE:
            try:
                checked, = wire.parse_messages(frame)
            except wire.ProtocolError:
                pass
        if isinstance(checked, wire.CheckedFrame):
            on_frame(checked.message, frame, bytes(buffer[end:]))
        else:
            on_garbage()

    endpoint.connect(on_data)


class SessionGuard:
    """The plane's host-local clocks for one session (``session.guard``).

    The session's own resilience state — token, journal, ack mark, drop
    flags, detach time — lives on the unit and migrates with it; these
    judge this host only and restart when a unit is enrolled."""

    __slots__ = ("last_seen", "not_before", "last_accept_time",
                 "flap_level", "last_writer_bytes", "last_tx_time",
                 "log_limit")

    def __init__(self, now: float, log_limit: int, bytes_sent: int):
        self.last_seen = now
        self.log_limit = log_limit
        self.not_before = now
        self.last_accept_time = now
        self.flap_level = 0
        self.last_writer_bytes = bytes_sent
        self.last_tx_time = now


class ResiliencePlane:
    """Server-side liveness, reconnect and resync for guarded sessions."""

    def __init__(self, server, config: Optional[ResilienceConfig] = None):
        self.server = server
        self.loop = server.loop
        self.config = config or ResilienceConfig()
        self.stats = dict.fromkeys(
            ("attaches", "reattaches", "disconnects", "heartbeats",
             "resyncs_replay", "resyncs_snapshot", "reconnects_denied",
             "queues_dropped", "log_overflows", "replayed_bytes",
             "max_replay_bytes", "snapshot_bytes"), 0)
        self._next_token = self.config.token_start
        self._tick_scheduled = False
        self._rng = random.Random(
            zlib.crc32(f"plane|{PLANE_SEED}".encode("utf-8")))

    def find(self, token: int):
        """The session this server holds under *token*, or None."""
        return next((s for s in self.server.sessions if s.token == token),
                    None) if token else None

    # -- attach / reconnect --------------------------------------------------

    def accept(self, connection: Connection, viewport=None) -> None:
        """Take ownership of a freshly dialled connection.

        Models the listening socket: the plane reads the reconnect
        request with :func:`read_prelude`, then either creates a
        session (token 0), resyncs the named one, or pushes back with a
        denial.  A malformed prelude, or one that is not a request
        (corruption can hit the dial too), abandons the connection; the
        client times out and redials.
        """
        def on_frame(msg, frame: bytes, rest: bytes) -> None:
            if isinstance(msg, wire.ReconnectRequestMessage):
                self._on_request(connection, msg, rest, viewport)

        read_prelude(connection.up, on_frame, lambda: None)

    def _on_request(self, connection: Connection,
                    req: wire.ReconnectRequestMessage, rest: bytes,
                    viewport) -> None:
        now = self.loop.now
        session = self.find(req.token)
        if session is None:
            # Fresh attach (or a token the plane no longer knows) —
            # subject to the governor's global admission budget, with
            # the denial in this path's own typed wire format.
            governor = self.server.governor
            if governor.check_admission() is not None:
                governor.stats["admission_denied"] += 1
                self.stats["reconnects_denied"] += 1
                write_prelude(connection.down, wire.ReconnectDeniedMessage(
                    governor.server_budget.retry_after))
                return
            governor.stats["admitted"] += 1
            token = self._next_token
            self._next_token += self.config.token_stride
            write_prelude(connection.down, wire.ReconnectAcceptMessage(
                token, wire.RESYNC_FRESH))
            session = self.server._make_session(connection, viewport,
                                                token=token)
            self.enrol(session)
            self._note_accept(session.guard, now)
        else:
            not_before = session.guard.not_before
            if now < not_before:
                self.stats["reconnects_denied"] += 1
                write_prelude(connection.down, wire.ReconnectDeniedMessage(
                    max(0.0, not_before - now)))
                return
            self._resync(session, connection, req.last_seq, now)
        if rest:
            session._on_client_data(rest)

    def _resync(self, session, connection: Connection,
                client_last_seq: int, now: float) -> None:
        guard, journal = session.guard, session.journal
        replay = [(seq, data) for seq, data in journal
                  if seq > client_last_seq]
        replay_bytes = sum(len(data) for _, data in replay)
        snapshot_cost = self._snapshot_cost(session)
        # Replay must be cheaper than a snapshot *and* gap-free from
        # the client's position; the log limit makes the first hold in
        # steady state, this is the belt to those braces.
        contiguous = not journal or journal[0][0] <= client_last_seq + 1
        use_replay = (not session.log_dropped and not session.shed_display
                      and contiguous and replay_bytes <= snapshot_cost)
        mode = wire.RESYNC_REPLAY if use_replay else wire.RESYNC_SNAPSHOT
        write_prelude(connection.down,
                      wire.ReconnectAcceptMessage(session.token, mode))
        session.rebind(connection)
        guard.last_seen = now
        self._note_accept(guard, now)
        if use_replay:
            session._replay.extend(data for _, data in replay)
            stats = self.stats
            stats["resyncs_replay"] += 1
            stats["replayed_bytes"] += replay_bytes
            stats["max_replay_bytes"] = max(stats["max_replay_bytes"],
                                            replay_bytes)
        else:
            # Stale state is worthless now: drop it all and push a
            # freshly read snapshot of current content, one RAW that
            # the flush cuts between PNG bands like any other.
            session.buffer.queue.clear()
            session._replay.clear()
            session.clear_audio()
            session.drop_journal(False)
            session.shed_display = False
            self.stats["resyncs_snapshot"] += 1
            self.stats["snapshot_bytes"] += snapshot_cost
            # A resize's SCREEN_INIT may have died unacked with the log:
            # the snapshot is only paintable at the geometry it is for.
            session.queue_control(wire.ScreenInitMessage(*session.viewport))
            self.server._submit_refresh(session)
        session._kick()

    def _snapshot_cost(self, session) -> int:
        """What a full-screen RAW snapshot would put on the wire:
        raw pixel bytes plus framing/wrapper/compression overhead for
        the worst (incompressible) case.  This is the yardstick replay
        must beat — replay bytes never exceed it by construction."""
        w, h = session.viewport
        return w * h * 4 + _SNAPSHOT_SLACK

    def _replay_log_limit(self, session) -> int:
        """Per-session replay log cap: twice a full-screen RAW snapshot
        (past which replay loses to snapshot), within the budget."""
        return min(2 * self._snapshot_cost(session),
                   self.server.governor.budget.max_journal_bytes)

    def _note_accept(self, guard: SessionGuard, now: float) -> None:
        """Exponential backoff with seeded jitter between accepts."""
        if now - guard.last_accept_time < _FLAP_WINDOW:
            guard.flap_level = min(guard.flap_level + 1, 16)
        else:
            guard.flap_level = 0
        guard.last_accept_time = now
        delay = min(self.config.backoff_base * (2 ** guard.flap_level),
                    _BACKOFF_MAX)
        delay *= 1.0 + self.config.backoff_jitter * self._rng.random()
        guard.not_before = now + delay

    # -- in-session traffic --------------------------------------------------

    def handle_session_message(self, session, msg) -> bool:
        """First look at every client message; True when consumed."""
        guard = session.guard
        if guard is None:
            return False
        now = self.loop.now
        guard.last_seen = now
        if session.detached and not session.shed_display \
                and session.connection is not None \
                and not session.connection.closed:
            # The quiet spell ended on the same pipe (a one-way stall):
            # re-attach in place, no resync needed — the client never
            # missed a byte.
            session.detached_at = None
            self.stats["reattaches"] += 1
            session._kick()
        if isinstance(msg, wire.HeartbeatMessage):
            self.stats["heartbeats"] += 1
            # Nobody can have applied a frame that was never sent: an
            # ack past the frame stage's mark is a lie, and would freeze
            # into a blob its thaw target must reject.
            acked = min(msg.last_seq, session.frame_stage.last_seq)
            if acked > session.acked_seq:
                session.acked_seq = acked
                journal = session.journal
                while journal and journal[0][0] <= acked:
                    _, data = journal.popleft()
                    session.journal_bytes -= len(data)
            return True
        return False

    # -- the liveness tick ---------------------------------------------------

    def _ensure_tick(self) -> None:
        if not self._tick_scheduled and any(
                s.token for s in self.server.sessions):
            self._tick_scheduled = True
            self.loop.schedule(self.config.check_interval, self._tick)

    def _tick(self) -> None:
        self._tick_scheduled = False
        now = self.loop.now
        cfg = self.config
        for session in [s for s in self.server.sessions if s.token]:
            guard = session.guard
            if not session.detached:
                if now - guard.last_seen > cfg.liveness_timeout:
                    self.stats["disconnects"] += 1
                    session.detach()
                else:
                    self._keepalive(guard, session, now)
            elif not session.shed_display and (
                    now - session.detached_at > cfg.detach_window
                    or session.buffer.pending_bytes() >
                    self.server.governor.budget.max_queue_bytes):
                # The client stayed away too long — or its absent-state
                # footprint hit the session budget early.  Holding a
                # queue (and log) for it no longer beats a snapshot.
                # Keep control state (cursor, video lifecycles) — only
                # pixels are cheaper to re-read than to replay.
                self._drop_session_state(session)
        self._ensure_tick()

    def _drop_session_state(self, session) -> None:
        """Drop a detached session's queue, journal and audio backlog;
        the eventual resync falls back to a fresh RAW snapshot."""
        session.drop_journal(True)
        session.buffer.queue.clear()
        session.clear_audio()
        session.shed_display = True
        self.stats["queues_dropped"] += 1

    def enrol(self, session) -> None:
        """Watch *session* from the next tick on: a fresh attach, or a
        unit thawed under its original token.  Its token, journal, ack
        mark and drop flags are already on the unit, so the plane only
        starts its clocks; a thawed unit is detached from its thaw
        time, so a migration spends part of the same bounded absence
        the network-fault path does."""
        session.guard = SessionGuard(self.loop.now,
                                     self._replay_log_limit(session),
                                     session.stats["bytes_sent"])
        self.stats["attaches"] += 1
        self._ensure_tick()

    def _keepalive(self, guard: SessionGuard, session, now: float) -> None:
        """An idle downlink still needs bytes on it, or the client's
        liveness detector would declare a healthy server dead."""
        sent = session.stats["bytes_sent"]
        if sent != guard.last_writer_bytes:
            guard.last_writer_bytes = sent
            guard.last_tx_time = now
        elif now - guard.last_tx_time >= self.config.heartbeat_interval:
            guard.last_tx_time = now
            session.queue_control(wire.HeartbeatMessage(0, now))
            session._kick()


class ResilientClient:
    """A THINC client wrapped with reconnect/resync behaviour.

    ``dial`` is a zero-argument callable producing a fresh
    :class:`Connection` whose server side is already routed to the
    resilience plane (see :func:`repro.net.faults.dial_factory`).
    """

    def __init__(self, loop, dial: Callable[[], Connection],
                 config: Optional[ResilienceConfig] = None,
                 viewport=None, decrypt_key: Optional[bytes] = None,
                 seed: int = 0):
        self.loop = loop
        self.dial = dial
        self.config = config or ResilienceConfig()
        self.client = THINCClient(loop, None, viewport=viewport,
                                  decrypt_key=decrypt_key)
        self.client.on_protocol_error = self._on_protocol_error
        self.client.on_attach_denied = self._on_attach_denied
        self.token = 0
        self.attached = False
        self._stopped = False
        self._pending_conn: Optional[Connection] = None
        self._dial_deadline: Optional[float] = None
        self._retry_level = 0
        self._rng = random.Random(
            zlib.crc32(f"client|{seed}".encode("utf-8")))
        self.stats = {"dials": 0, "accepts": 0, "denials": 0,
                      "dead_detected": 0, "protocol_errors": 0,
                      "attach_denied": 0, "replay_resyncs": 0,
                      "snapshot_resyncs": 0}

    def start(self) -> None:
        self._dial_now()
        self.loop.schedule(self.config.heartbeat_interval,
                           self._heartbeat_tick)
        self.loop.schedule(self.config.check_interval, self._watch_tick)

    def stop(self) -> None:
        self._stopped = True

    # -- dialling --------------------------------------------------------------

    def _dial_now(self) -> None:
        if self._stopped:
            return
        self.attached = False
        self.stats["dials"] += 1
        conn = self.dial()
        self._pending_conn = conn
        read_prelude(conn.down, partial(self._on_answer, conn),
                     partial(self._on_garbage_answer, conn))
        write_prelude(conn.up, wire.ReconnectRequestMessage(
            self.token, self.client.last_applied_seq))
        self._dial_deadline = self.loop.now + self.config.liveness_timeout

    def _on_garbage_answer(self, conn: Connection) -> None:
        if self._pending_conn is not conn:
            return  # a stale dial answered after we moved on
        # Corrupted prelude: abandon the dial and retry.
        self.stats["protocol_errors"] += 1
        self._pending_conn = None
        self._dial_deadline = None
        self._schedule_redial()

    def _on_answer(self, conn: Connection, msg, frame: bytes,
                   rest: bytes) -> None:
        if self._pending_conn is not conn:
            return  # a stale dial answered after we moved on
        if isinstance(msg, wire.ReconnectAcceptMessage):
            self.token = msg.token
            self.attached = True
            self._pending_conn = None
            self._dial_deadline = None
            self._retry_level = 0
            self.stats["accepts"] += 1
            if msg.resync == wire.RESYNC_FRESH:
                # A brand-new session: sequence space restarts.
                self.client.last_applied_seq = 0
            elif msg.resync == wire.RESYNC_REPLAY:
                self.stats["replay_resyncs"] += 1
            else:
                # RESYNC_SNAPSHOT — and the safe reading of anything
                # unrecognised: expect a sequence discontinuity.
                self.stats["snapshot_resyncs"] += 1
                self.client.note_snapshot_resync()
            self.client.rebind(conn)
            self.client.stats["last_rx_time"] = self.loop.now
            if rest:
                self.client._on_data(rest)
            self._send_heartbeat()  # ack immediately; prunes the log
        elif isinstance(msg, wire.ReconnectDeniedMessage):
            self.stats["denials"] += 1
            self._pending_conn = None
            self._dial_deadline = None
            self._schedule_redial(min_delay=msg.retry_after)
        # Anything else in the prelude is junk; the watch timer retries.

    def _schedule_redial(self, min_delay: float = 0.0) -> None:
        if self._stopped:
            return
        delay = min(self.config.backoff_base * (2 ** self._retry_level),
                    _BACKOFF_MAX)
        delay *= 1.0 + self.config.backoff_jitter * self._rng.random()
        self._retry_level = min(self._retry_level + 1, 16)
        self.loop.schedule(max(delay, min_delay), self._dial_now)

    # -- steady-state timers ---------------------------------------------------

    def _heartbeat_tick(self) -> None:
        if self._stopped:
            return
        if self.attached:
            self._send_heartbeat()
        self.loop.schedule(self.config.heartbeat_interval,
                           self._heartbeat_tick)

    def _send_heartbeat(self) -> None:
        conn = self.client.connection
        if conn is None or conn.closed:
            return
        data = wire.encode_message(wire.HeartbeatMessage(
            self.client.last_applied_seq, self.loop.now))
        if conn.up.writable_bytes() >= len(data):
            conn.up.write(data)

    def _watch_tick(self) -> None:
        if self._stopped:
            return
        now = self.loop.now
        if self.attached:
            # Silence alone is failure: a slow frame on a thin link is
            # not, and a corrupted length fails at its header (wire.py).
            if now - self.client.stats["last_rx_time"] > \
                    self.config.liveness_timeout:
                self.stats["dead_detected"] += 1
                self._reconnect()
        elif self._dial_deadline is not None and now > self._dial_deadline:
            # The dial never got an answer (partition, dead socket).
            self._pending_conn = None
            self._dial_deadline = None
            self._schedule_redial()
        self.loop.schedule(self.config.check_interval, self._watch_tick)

    # -- failure paths ---------------------------------------------------------

    def _reconnect(self) -> None:
        self.attached = False
        if self.client.connection is not None:
            self.client.connection.down.disconnect()
        self._schedule_redial()

    def _on_protocol_error(self, exc: Exception) -> None:
        self.stats["protocol_errors"] += 1
        if self.attached:
            self._reconnect()

    def _on_attach_denied(self, msg: "wire.AttachDeniedMessage") -> None:
        """The governor evicted this session mid-stream: back off for
        at least the server's retry hint, then redial (the token was
        forgotten server-side, so the redial is a fresh attach)."""
        self.stats["attach_denied"] += 1
        self.token = 0
        self.attached = False
        if self.client.connection is not None:
            self.client.connection.down.disconnect()
        self._schedule_redial(min_delay=msg.retry_after)
