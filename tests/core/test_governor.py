"""Per-chokepoint tests for the resource governor's response ladder.

Each test pins one rung: degrade entry/exit at the queue watermark,
coalesce at the hard cap, eviction past the ceiling (or on a re-trip
within the cooldown), audio shedding, control-backlog eviction, uplink
throttling and flood eviction, the wire-error policies (plain vs
resilient), and server-wide admission control with its typed denial.
"""

import numpy as np
import pytest

from repro.codec import LinkPosture
from repro.core import AdmissionDenied, Budget, ServerBudget, THINCClient
from repro.core.governor import SessionMeter
from repro.net import Connection, LAN_DESKTOP
from repro.protocol import wire
from repro.protocol.commands import RawCommand
from repro.region import Rect

from repro.net.link import LinkParams

from tests.helpers import (assert_pixel_identical, buffered_spy, make_rig,
                           make_resilient_rig)

#: A link slow enough (64 kbit/s) that full-screen noise RAWs pile up
#: in the session buffer instead of draining between pipeline events.
SLOW_LINK = LinkParams("slow modem", bandwidth_bps=64_000, rtt=0.01)


def noise(seed=0, w=96, h=64):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, (h, w, 4), dtype=np.uint8)


def put_strips(ws, rect, pixels, rows=8):
    """Draw *pixels* as one image per *rows*-row strip.  A whole image
    reaches the queue as one RAW per 64 KiB band and can jump past
    every rung at once; strips grow the backlog a few KB at a time, so
    it meets the rungs in order."""
    for y in range(0, rect.height, rows):
        ws.put_image(ws.screen, Rect(rect.x, rect.y + y, rect.width,
                                     min(rows, rect.height - y)),
                     pixels[y : y + rows])


def tight_budget(**kw):
    base = dict(degrade_queue_bytes=2_000, max_queue_bytes=200_000,
                evict_queue_bytes=400_000, coalesce_cooldown=0.5)
    base.update(kw)
    return Budget(**base)


class TestQueueLadder:
    """The queue-bytes ladder on a live session.  A mirror subscriber
    is an ordinary session, so a slow one is governed by these cases."""

    def test_degrade_enter_and_exit(self):
        budget = tight_budget()
        loop, conn, mon, server, ws, client = make_rig(
            link=SLOW_LINK, send_buffer=2048, budget=budget)
        session = server.sessions[0]
        ws.put_image(ws.screen, Rect(0, 0, 96, 64), noise())
        loop.run_until(0.2)
        # Entry, with the backlog still standing behind the slow link.
        assert session.buffer.pending_bytes() > budget.degrade_queue_bytes
        assert session.degraded
        assert server.governor.stats["degrade_entered"] == 1
        # Audio is shed while degraded (the mildest response).
        session.queue_audio(0.0, b"\x00" * 256)
        assert session.stats["audio_dropped"] == 1
        # Exit once the backlog has drained — no further draw needed.
        loop.run_until(8.0)
        assert session.buffer.pending_bytes() == 0
        assert not session.degraded
        assert server.governor.stats["degrade_exited"] == 1

    def test_degrade_exits_when_the_display_goes_quiet(self):
        """A burst crosses the soft watermark and then the screen stays
        static: the session must leave degraded mode as its buffer
        drains, or audio stays shed and the link probe stays
        pessimistic for as long as nothing draws."""
        thin = LinkParams("thin", bandwidth_bps=0.4e6, rtt=0.02)
        loop, conn, mon, server, ws, client = make_rig(
            link=thin, send_buffer=6000,
            budget=Budget(degrade_queue_bytes=20_000))
        session = server.sessions[0]
        rng = np.random.default_rng(21)
        for i in range(14):
            loop.schedule_at(0.1 + 0.05 * i, lambda: ws.put_image(
                ws.screen, ws.screen.bounds,
                rng.integers(0, 256, (64, 96, 4), dtype=np.uint8)))
        loop.run_until(20.0)
        stats = server.governor.stats
        assert stats["degrade_entered"] == 1
        assert session.buffer.pending_bytes() == 0
        assert not session.degraded
        assert stats["degrade_exited"] == 1
        assert server.health.posture(session) is not LinkPosture.DEGRADED
        # Audio on the now-static screen is delivered, not shed.
        dropped = session.stats["audio_dropped"]
        for i in range(200):
            loop.schedule_at(20.0 + 0.025 * i, lambda t=i: (
                server.submit_audio(20.0 + 0.025 * t, b"\x00" * 800)))
        loop.run_until(26.0)
        assert session.stats["audio_dropped"] == dropped
        assert len(client.audio.arrivals) == 200
        assert_pixel_identical(client, ws)

    def test_hard_cap_coalesces_and_the_survivor_is_pixel_exact(self):
        """A chatty application on a slow link: overdrawn text lines
        are transparent, so eviction cannot shrink them and the backlog
        passes the hard cap once; the refresh that replaces it is
        cheaper, drains, and leaves the client exact."""
        loop, conn, mon, server, ws, client = make_rig(
            link=SLOW_LINK, send_buffer=2048,
            budget=tight_budget(max_queue_bytes=8_000,
                                evict_queue_bytes=10_000_000))
        session = server.sessions[0]
        loop.run_until(1.0)
        rng = np.random.default_rng(3)
        with buffered_spy() as buffered:
            for i in range(120):
                text = "".join(chr(c) for c in rng.integers(33, 127, 14))
                ws.draw_text(ws.screen, 2, 8 + 10 * (i % 5), text,
                             (int(rng.integers(0, 256)), 0, 0, 255))
            loop.run_until(10.0)
        stats = server.governor.stats
        assert stats["coalesces"] == 1
        # The refresh is buffered as one RAW; the flush cuts it.
        assert [c.dest for c in buffered if isinstance(c, RawCommand)] \
            == [ws.screen.bounds]
        assert stats["evicted"] == 0 and not session.quarantined
        assert not session.degraded
        assert_pixel_identical(client, ws)

    def test_ceiling_evicts(self):
        loop, conn, mon, server, ws, client = make_rig(
            link=SLOW_LINK, send_buffer=2048,
            budget=tight_budget(degrade_queue_bytes=1_000,
                                max_queue_bytes=3_000,
                                evict_queue_bytes=6_000))
        session = server.sessions[0]
        put_strips(ws, Rect(0, 0, 96, 64), noise())
        loop.run_until(5.0)
        assert session.quarantined
        assert server.governor.stats["evicted"] == 1
        # The ladder was climbed in order: coalesce was tried first.
        assert server.governor.stats["coalesces"] >= 1
        assert session not in server.sessions
        # The typed denial reaches the client; later draws don't crash.
        assert client.attach_denied is not None
        assert client.attach_denied.reason == wire.DENY_SESSION_BUDGET
        ws.fill_rect(ws.screen, Rect(0, 0, 8, 8), (1, 2, 3, 255))
        loop.run_until(6.0)

    def test_retrip_within_cooldown_evicts(self):
        loop, conn, mon, server, ws, client = make_rig(
            link=SLOW_LINK, send_buffer=2048,
            budget=tight_budget(max_queue_bytes=20_000,
                                evict_queue_bytes=10_000_000,
                                coalesce_cooldown=60.0))
        session = server.sessions[0]
        # Overlapping tiles defeat queue overwrites; the first overflow
        # coalesces, and the re-trip within the cooldown evicts.
        for i in range(8):
            put_strips(ws, Rect(4 * i, 2 * i, 64, 48), noise(i, 64, 48))
        loop.run_until(60.0)
        stats = server.governor.stats
        assert stats["coalesces"] >= 1
        assert stats["evicted"] == 1
        assert session.quarantined


class _StubBuffer:
    def __init__(self):
        self.pending = 0
        self.queue = []

    def pending_bytes(self):
        return self.pending


class _StubSession:
    """Just enough session surface for the ladder: the geometry engine
    clips real queues near one screen's worth of bytes, so the pure
    coalesce rung is driven with a synthetic gauge instead."""

    def __init__(self, meter: SessionMeter):
        self.buffer = _StubBuffer()
        self.meter = meter
        self.degraded = False
        self.quarantined = False
        self.connection = None
        self.detached = False

    def detach(self):
        self.detached = True


class TestLadderUnit:
    """The queue ladder against a synthetic pending-bytes gauge."""

    def _governor(self, **kw):
        loop, conn, mon, server, ws, client = make_rig(
            budget=tight_budget(max_queue_bytes=30_000,
                                evict_queue_bytes=100_000, **kw))
        refreshes = []
        server._submit_refresh = (
            lambda session, rect=None: refreshes.append((session, rect)))
        gov = server.governor
        return gov, _StubSession(SessionMeter(gov.budget, loop.now)), \
            refreshes

    def test_hard_cap_coalesces_then_recovers(self):
        gov, sess, refreshes = self._governor(coalesce_cooldown=0.5)
        sess.buffer.pending = 50_000
        sess.buffer.queue = ["cmd"] * 4
        gov.after_display_add(sess)
        assert gov.stats["coalesces"] == 1
        assert gov.stats["evicted"] == 0
        assert sess.buffer.queue == []          # backlog dropped...
        assert refreshes == [(sess, None)]      # ...for a full refresh
        assert not sess.quarantined
        # Once the refresh drains, the session recovers fully.
        sess.buffer.pending = 500
        gov.after_display_add(sess)
        assert not sess.quarantined and not sess.degraded

    def test_recoalesce_within_cooldown_evicts(self):
        gov, sess, refreshes = self._governor(coalesce_cooldown=10.0)
        sess.buffer.pending = 50_000
        gov.after_display_add(sess)
        assert gov.stats["coalesces"] == 1
        sess.buffer.pending = 50_000            # refilled immediately
        gov.after_display_add(sess)
        assert gov.stats["evicted"] == 1
        assert sess.quarantined and sess.detached

    def test_absolute_ceiling_skips_coalesce(self):
        gov, sess, refreshes = self._governor()
        sess.buffer.pending = 150_000
        gov.after_display_add(sess)
        assert gov.stats["coalesces"] == 0
        assert gov.stats["evicted"] == 1
        assert sess.quarantined


class TestAudioAndControl:
    def test_audio_backlog_sheds_oldest(self):
        loop, conn, mon, server, ws, client = make_rig(
            send_buffer=64, budget=Budget(max_audio_backlog_bytes=2_048))
        session = server.sessions[0]
        for i in range(8):
            session.queue_audio(float(i), bytes([i]) * 512)
        assert session.audio_backlog_bytes <= 2_048
        assert server.governor.stats["audio_shed"] >= 4
        assert not session.quarantined

    def test_control_backlog_evicts(self):
        loop, conn, mon, server, ws, client = make_rig(
            send_buffer=64, budget=Budget(max_control_backlog_bytes=4_096))
        session = server.sessions[0]
        rgba = bytes(32 * 32 * 4)
        for _ in range(8):
            if session.quarantined:
                break
            session.queue_control(
                wire.CursorImageMessage(0, 0, 32, 32, rgba))
        assert session.quarantined
        assert server.governor.stats["evicted"] == 1


class TestUplinkGovernance:
    def _flood(self, server, conn, loop, count):
        for i in range(count):
            conn.up.write(wire.encode_message(
                wire.InputMessage("key", i % 96, 0, loop.now)))
            loop.run_until(loop.now + 0.001)

    def test_token_bucket_throttles(self):
        seen = []
        loop, conn, mon, server, ws, client = make_rig(
            budget=Budget(uplink_msgs_per_sec=10.0, uplink_burst=5))
        server.input_handler = lambda s, m: seen.append(m)
        self._flood(server, conn, loop, 50)
        stats = server.governor.stats
        assert stats["uplink_throttled"] > 0
        assert len(seen) < 50
        assert server.sessions[0].stats["uplink_dropped"] > 0

    def test_sustained_flood_evicts(self):
        loop, conn, mon, server, ws, client = make_rig(
            budget=Budget(uplink_msgs_per_sec=1.0, uplink_burst=2,
                          max_uplink_dropped=10))
        session = server.sessions[0]
        self._flood(server, conn, loop, 40)
        assert session.quarantined
        assert server.governor.stats["evicted"] == 1

    def test_plain_session_quarantined_on_first_wire_error(self):
        loop, conn, mon, server, ws, client = make_rig()
        session = server.sessions[0]
        conn.up.write(wire.frame_message(99, b"garbage"))
        loop.run_until(1.0)
        assert session.quarantined
        assert session not in server.sessions
        assert session.stats["wire_errors"] == 1
        assert client.attach_denied is not None
        assert client.attach_denied.reason == wire.DENY_QUARANTINED

    def test_resilient_session_has_wire_error_budget(self):
        loop, dial, server, ws, rc = make_resilient_rig(
            budget=Budget(max_uplink_errors=2))
        rc.start()
        loop.run_until(0.5)
        session = server.sessions[0]
        conn = session.connection
        bad = wire.frame_message(99, b"garbage")
        conn.up.write(bad)
        loop.run_until(0.6)
        assert not session.quarantined  # parser reset, error 1/2
        conn.up.write(bad)
        loop.run_until(0.7)
        assert not session.quarantined  # error 2/2
        conn.up.write(bad)
        loop.run_until(0.8)
        assert session.quarantined      # budget exhausted
        assert server.governor.stats["wire_errors"] == 3


class TestAdmission:
    def test_attach_past_limit_denied_with_typed_message(self):
        loop, conn, mon, server, ws, client = make_rig(
            server_budget=ServerBudget(max_sessions=1, retry_after=2.5))
        late = Connection(loop, LAN_DESKTOP)
        late_client = THINCClient(loop, late)
        with pytest.raises(AdmissionDenied) as exc:
            server.attach_client(late)
        assert exc.value.reason == wire.DENY_SERVER_FULL
        assert exc.value.retry_after == 2.5
        assert len(server.sessions) == 1
        loop.run_until(1.0)
        denial = late_client.attach_denied
        assert denial is not None
        assert denial.reason == wire.DENY_SERVER_FULL
        assert denial.retry_after == 2.5
        assert server.governor.stats["admission_denied"] == 1

    def test_resilience_plane_denies_fresh_attach(self):
        loop, dial, server, ws, rc = make_resilient_rig(
            server_budget=ServerBudget(max_sessions=0, retry_after=0.2))
        rc.start()
        loop.run_until(2.0)
        assert len(server.sessions) == 0
        assert server.resilience.stats["reconnects_denied"] > 0
        assert server.governor.stats["admission_denied"] > 0
        # The client surfaced the denial and kept backing off cleanly.
        assert not rc.attached

    def test_stats_surface_governor_counters(self):
        loop, conn, mon, server, ws, client = make_rig()
        stats = server.stats
        assert stats["sessions"] == 1
        assert stats["governor_admitted"] == 1
        assert "governor_quarantined" in stats
