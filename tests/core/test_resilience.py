"""Chaos suite for the session resilience plane.

Every scenario runs a deterministic scripted workload while a fault
plan batters the transport, then lets the chaos settle and demands the
strongest possible outcome: the client framebuffer is pixel-identical
to the server screen — and to a clean twin run of the same workload
that never saw a fault.

Drive these rigs with ``loop.run_until(t)``: heartbeat and liveness
timers run forever, so ``run_until_idle`` would not return.
"""

import os

import numpy as np

from tests.helpers import (assert_pixel_identical, buffered_spy,
                           deflate_spy, make_resilient_rig,
                           scripted_workload)
from repro.core import Budget, THINCServer
from repro.core.resilience import ResilienceConfig
from repro.net import LAN_DESKTOP, Connection, EventLoop, LinkParams
from repro.net.faults import (Corruption, Disconnect, FaultPlan, LossBurst,
                              Partition, Stall)
from repro.protocol import wire
from repro.protocol.commands import RawCommand

W, H = 96, 64
# The replay-byte bound: what a full-screen RAW snapshot would cost on
# the wire (raw pixels + framing/compression overhead per flushed piece).
FULLSCREEN_RAW = W * H * 4 + 4096
SETTLE = 8.0  # all scripted plans are quiet long before this

# A higher-latency link keeps bytes in flight, so abrupt faults have
# something to destroy (on an instant LAN every write is already
# applied before the fault lands).
WAN = LinkParams("test-wan", bandwidth_bps=10e6, rtt=0.08)


def chaos_run(plan, end=1.2, settle=SETTLE, workload_seed=7, **rig_kw):
    loop, dial, server, ws, rc = make_resilient_rig(
        width=W, height=H, plan=plan, **rig_kw)
    scripted_workload(loop, ws, end=end, seed=workload_seed)
    loop.run_until(settle)
    return loop, dial, server, ws, rc


def clean_twin_pixels(end=1.2, workload_seed=7, **rig_kw):
    """The same workload with no faults: the golden screen."""
    loop, dial, server, ws, rc = chaos_run(None, end=end,
                                           workload_seed=workload_seed,
                                           **rig_kw)
    assert_pixel_identical(rc.client, ws)
    return np.array(rc.client.fb.data, copy=True)


def assert_clean_outcome(rc, ws, **twin_kw):
    """Pixel-identical to the live screen AND to the uninterrupted
    twin run, with an intact (gap-free) sequence stream."""
    assert_pixel_identical(rc.client, ws)
    assert np.array_equal(rc.client.fb.data, clean_twin_pixels(**twin_kw))
    assert rc.client.stats["seq_gaps"] == 0


class TestCleanSession:
    def test_no_faults_no_resyncs(self):
        loop, dial, server, ws, rc = chaos_run(None)
        assert_pixel_identical(rc.client, ws)
        st = server.resilience.stats
        assert rc.stats["dials"] == 1
        assert st["attaches"] == 1
        assert st["resyncs_replay"] == 0 and st["resyncs_snapshot"] == 0
        assert st["heartbeats"] > 0  # liveness traffic flowed

    def test_acks_prune_the_replay_log(self):
        loop, dial, server, ws, rc = chaos_run(None)
        session = next(s for s in server.sessions if s.token)
        # Quiescent and fully acked: the journal must be (near) empty,
        # not an ever-growing transcript of the session.
        assert session.journal_bytes <= 64


class TestScriptedScenarios:
    def test_loss_burst_is_transports_problem(self):
        # Partial loss is ordinary TCP weather: retransmits absorb it
        # with no reconnect, no resync, not even a liveness blip.
        plan = FaultPlan([LossBurst(start=0.3, duration=0.4,
                                    drop_rate=0.6)], seed=6)
        loop, dial, server, ws, rc = chaos_run(plan, end=1.0)
        assert_clean_outcome(rc, ws, end=1.0)
        st = server.resilience.stats
        assert rc.stats["dials"] == 1
        assert st["resyncs_replay"] == 0 and st["resyncs_snapshot"] == 0

    def test_upstream_stall_reattaches_in_place(self):
        # Heartbeats freeze, the server detaches; when the stalled
        # heartbeats surge out the session re-attaches on the same
        # pipe — the client never notices anything happened.
        plan = FaultPlan([Stall(start=0.4, duration=0.5,
                                direction="up")], seed=1)
        loop, dial, server, ws, rc = chaos_run(plan, end=1.6)
        assert_clean_outcome(rc, ws, end=1.6)
        st = server.resilience.stats
        assert rc.stats["dials"] == 1  # no reconnect needed
        assert st["disconnects"] == 1 and st["reattaches"] == 1
        assert st["resyncs_replay"] == 0 and st["resyncs_snapshot"] == 0

    def test_downstream_stall_recovers_by_replay(self):
        plan = FaultPlan([Stall(start=0.4, duration=0.8,
                                direction="down")], seed=2)
        loop, dial, server, ws, rc = chaos_run(plan, end=1.6)
        assert_clean_outcome(rc, ws, end=1.6)
        st = server.resilience.stats
        assert rc.stats["dead_detected"] >= 1
        assert st["resyncs_replay"] >= 1
        assert st["resyncs_snapshot"] == 0  # queue survived: no fallback
        assert st["max_replay_bytes"] <= FULLSCREEN_RAW

    def test_partition_heals_without_snapshot(self):
        plan = FaultPlan([Partition(start=0.4, duration=0.6)], seed=3)
        loop, dial, server, ws, rc = chaos_run(plan, end=1.6)
        assert_clean_outcome(rc, ws, end=1.6)
        assert server.resilience.stats["resyncs_snapshot"] == 0

    def test_mid_frame_disconnect_replays_lost_frames(self):
        # Kill the socket while a full-screen frame is in flight on a
        # fat-latency pipe: the journal must resend the lost suffix.
        def run(plan):
            loop, dial, server, ws, rc = make_resilient_rig(
                width=W, height=H, plan=plan, link=WAN)
            scripted_workload(loop, ws, end=1.2)
            img = np.random.default_rng(5).integers(
                0, 256, (H, W, 4), dtype=np.uint8)
            loop.schedule_at(0.46, lambda: ws.put_image(
                ws.screen, ws.screen.bounds, img))
            loop.run_until(SETTLE)
            assert_pixel_identical(rc.client, ws)
            return server, rc

        server, rc = run(FaultPlan([Disconnect(at=0.5)], seed=9))
        clean_server, clean_rc = run(None)
        assert np.array_equal(rc.client.fb.data, clean_rc.client.fb.data)
        assert rc.client.stats["seq_gaps"] == 0
        st = server.resilience.stats
        assert st["resyncs_replay"] >= 1 and st["resyncs_snapshot"] == 0
        assert 0 < st["max_replay_bytes"] <= FULLSCREEN_RAW

    def test_corrupted_frames_trigger_resync_not_crash(self):
        plan = FaultPlan([Corruption(start=0.4, duration=0.3,
                                     direction="down", rate=1.0)], seed=5)
        loop, dial, server, ws, rc = chaos_run(plan, end=1.2)
        assert_pixel_identical(rc.client, ws)
        assert np.array_equal(rc.client.fb.data, clean_twin_pixels(end=1.2))
        total_errors = (rc.stats["protocol_errors"]
                        + rc.client.stats["protocol_errors"])
        assert total_errors > 0  # damage was detected, typed, survived
        assert server.resilience.stats["resyncs_snapshot"] == 0

    def test_upstream_corruption_does_not_kill_the_server(self):
        plan = FaultPlan([Corruption(start=0.3, duration=0.4,
                                     direction="up", rate=1.0)], seed=8)
        loop, dial, server, ws, rc = chaos_run(plan, end=1.2)
        assert_pixel_identical(rc.client, ws)

    def test_detach_window_expiry_falls_back_to_snapshot(self):
        # The client stays away past the detach window (huge client
        # backoff forces that): queue and log are dropped, and the
        # reconnect is served by a RAW snapshot instead.
        server_cfg = ResilienceConfig(
            heartbeat_interval=0.1, liveness_timeout=0.35,
            check_interval=0.05, backoff_base=0.05, detach_window=0.8)
        client_cfg = ResilienceConfig(
            heartbeat_interval=0.1, liveness_timeout=0.35,
            check_interval=0.05, backoff_base=2.5, backoff_jitter=0.0)
        plan = FaultPlan([Disconnect(at=0.5)], seed=9)
        loop, dial, server, ws, rc = chaos_run(
            plan, end=1.2, config=server_cfg, client_config=client_cfg)
        assert_pixel_identical(rc.client, ws)
        st = server.resilience.stats
        assert st["queues_dropped"] == 1
        assert st["resyncs_snapshot"] == 1 and st["resyncs_replay"] == 0
        # The snapshot discontinuity is announced, not a stream bug.
        assert rc.client.stats["seq_gaps"] == 0

    def test_snapshot_is_one_raw_that_the_flush_cuts(self):
        """A snapshot is one full-screen RAW: its PNG payload is
        DEFLATEd once, and each flush split re-DEFLATEs only the row
        that starts the rest.  A noisy 800-pixel-wide screen bands
        every 27 RGB rows, so a refresh cut in advance into 32-row
        pieces would be unbanded pieces that the WAN's full socket
        splits by rows and DEFLATEs again: 784 800 B fed for a
        480 000 B payload."""
        w, h = 800, 200
        server_cfg = ResilienceConfig(
            heartbeat_interval=0.1, liveness_timeout=0.35,
            check_interval=0.05, backoff_base=0.05, detach_window=0.3)
        client_cfg = ResilienceConfig(
            heartbeat_interval=0.1, liveness_timeout=0.35,
            check_interval=0.05, backoff_base=2.5, backoff_jitter=0.0)
        loop, dial, server, ws, rc = make_resilient_rig(
            width=w, height=h, link=WAN,
            plan=FaultPlan([Disconnect(at=0.5)], seed=9),
            config=server_cfg, client_config=client_cfg)
        noise = np.random.default_rng(5).integers(0, 256, (h, w, 4),
                                                  dtype=np.uint8)
        noise[..., 3] = 255
        ws.put_image(ws.screen, ws.screen.bounds, noise)
        loop.run_until(1.5)  # detached, window expired, not yet back
        assert server.resilience.stats["queues_dropped"] == 1
        session = next(s for s in server.sessions if s.token)
        splits = session.buffer.stats["commands_split"]
        with buffered_spy() as buffered, deflate_spy() as fed:
            loop.run_until(SETTLE)
        assert server.resilience.stats["resyncs_snapshot"] == 1
        splits = session.buffer.stats["commands_split"] - splits
        assert splits >= 1
        assert sum(fed) <= noise[..., :3].nbytes + splits * w * 3
        assert [(type(c), c.dest) for c in buffered] == \
            [(RawCommand, ws.screen.bounds)]
        assert_pixel_identical(rc.client, ws)

    def test_encrypted_session_survives_reconnect(self):
        # A reconnect restarts both RC4 keystreams; any desync would
        # garble every byte after the resync and fail pixel equality.
        plan = FaultPlan([Disconnect(at=0.5)], seed=12)
        loop, dial, server, ws, rc = chaos_run(plan, end=1.2, encrypt=True)
        assert_pixel_identical(rc.client, ws)
        assert np.array_equal(rc.client.fb.data,
                              clean_twin_pixels(end=1.2, encrypt=True))
        assert server.resilience.stats["resyncs_replay"] >= 1

    def test_rapid_flapping_is_denied_backoff(self):
        plan = FaultPlan([Disconnect(at=0.4), Disconnect(at=0.9),
                          Disconnect(at=1.4)], seed=13)
        loop, dial, server, ws, rc = chaos_run(plan, end=1.6, settle=12.0)
        assert_pixel_identical(rc.client, ws)
        st = server.resilience.stats
        assert st["resyncs_replay"] + st["resyncs_snapshot"] >= 3


class TestFramingChecks:
    """A frame is checked where it is read; a slow one is not a fault."""

    def test_a_slow_frame_on_a_thin_link_is_not_a_desync(self):
        # One noise photograph over 64 kbit/s takes seconds to arrive:
        # the client must wait for it on its first connection, not
        # redial and have the replay resend the same slow frame.
        thin = LinkParams("64k", bandwidth_bps=64e3, rtt=0.02,
                          tcp_window=16 * 1024)
        loop, dial, server, ws, rc = make_resilient_rig(
            width=128, height=96, link=thin, config=ResilienceConfig())
        img = np.random.default_rng(1).integers(
            0, 256, (96, 128, 4), dtype=np.uint8)
        img[..., 3] = 255
        loop.schedule_at(0.1, lambda: ws.put_image(
            ws.screen, ws.screen.bounds, img))
        loop.run_until(6.0)
        assert_pixel_identical(rc.client, ws)
        assert rc.stats["dials"] == 1
        assert server.resilience.stats["resyncs_replay"] == 0

    def test_a_corrupted_length_redials_on_the_chunk_that_carries_it(self):
        # The wire damages one CHECKED frame's length (the journal keeps
        # it intact).  The client must fail at that frame's header, not
        # wait a liveness window on a phantom frame, and the replay
        # must heal the screen.
        loop, dial, server, ws, rc = make_resilient_rig(width=W, height=H)
        scripted_workload(loop, ws, end=1.2, seed=7)
        sent, errors = [], []

        def arm():
            stage = server.sessions[0].frame_stage
            encrypt = stage.encrypt

            def corrupt(data):
                if not sent:
                    sent.append(loop.now)
                    data = bytearray(data)
                    data[1:5] = (int.from_bytes(data[1:5], "big")
                                 + (1 << 20)).to_bytes(4, "big")
                return encrypt(bytes(data))

            stage.encrypt = corrupt

        loop.schedule_at(0.4, arm)
        hook = rc.client.on_protocol_error
        rc.client.on_protocol_error = lambda exc: (
            errors.append((loop.now, exc)), hook(exc))
        loop.run_until(SETTLE)
        assert len(errors) == 1
        (when, exc), = errors
        assert isinstance(exc, wire.ChecksumError)
        assert when - sent[0] < 0.01  # one LAN hop, not a liveness window
        assert rc.stats["dials"] == 2
        assert_clean_outcome(rc, ws)


class TestPrelude:
    """The dial prelude is one CHECKED frame: anything else abandons
    the connection before a session exists."""

    @staticmethod
    def dial(prelude):
        loop = EventLoop()
        server = THINCServer(loop, W, H, resilience=ResilienceConfig())
        conn = Connection(loop, LAN_DESKTOP)
        server.resilience.accept(conn)
        conn.up.write(prelude)
        loop.run_until(0.5)
        return server, conn

    def test_a_malformed_prelude_is_refused(self):
        request = bytearray(wire.wrap_checked(wire.encode_message(
            wire.ReconnectRequestMessage(0, 0)), 0))
        request[6] ^= 0xFF  # the CRC no longer matches
        server, conn = self.dial(bytes(request))
        assert conn.up._receiver is None
        assert not server.sessions
        assert server.resilience.stats["attaches"] == 0

    def test_a_bare_request_is_refused(self):
        server, conn = self.dial(wire.encode_message(
            wire.ReconnectRequestMessage(0, 0)))
        assert conn.up._receiver is None
        assert not server.sessions
        assert server.resilience.stats["attaches"] == 0


class TestEviction:
    def test_evicted_client_backs_off_then_attaches_fresh(self, monkeypatch):
        # Garbage uplink frames past the wire-error budget quarantine
        # the session, which the fresh attach's own refresh cannot
        # re-trip.  The client honours the denial's retry hint, redials
        # once under a new token and converges.
        monkeypatch.setattr("repro.core.governor.MAX_UPLINK_ERRORS", 2)
        loop, dial, server, ws, rc = make_resilient_rig(width=W, height=H)
        scripted_workload(loop, ws, end=1.2, seed=7)
        denials, dials = [], []
        hook = rc.client.on_attach_denied
        rc.client.on_attach_denied = lambda msg: (
            denials.append((loop.now, msg)), hook(msg))
        real_dial = rc.dial
        rc.dial = lambda: (dials.append(loop.now), real_dial())[1]
        loop.run_until(0.5)
        token, session = rc.token, server.sessions[0]
        for _ in range(3):
            session.connection.up.write(wire.frame_message(99, b"garbage"))
            loop.run_until(loop.now + 0.05)
        assert session.quarantined
        loop.run_until(SETTLE)
        (denied_at, msg), = denials
        assert msg.reason == wire.DENY_QUARANTINED
        assert len(dials) == 1 and dials[0] - denied_at >= msg.retry_after
        assert rc.attached and rc.token not in (0, token)
        assert rc.stats["attach_denied"] == 1
        assert rc.stats["accepts"] == 2
        assert len(server.sessions) == 1 and session not in server.sessions
        assert_pixel_identical(rc.client, ws)


class TestDegradation:
    def test_sustained_backpressure_sheds_audio_then_recovers(self):
        thin = LinkParams("thin", bandwidth_bps=0.4e6, rtt=0.02)
        cfg = ResilienceConfig(
            heartbeat_interval=0.1, liveness_timeout=2.0,
            check_interval=0.05, backoff_base=0.05)
        loop, dial, server, ws, rc = make_resilient_rig(
            width=W, height=H, link=thin, send_buffer=6000, config=cfg,
            budget=Budget(degrade_queue_bytes=20_000))
        rng = np.random.default_rng(21)

        def hammer(i):
            if i < 14:
                ws.put_image(ws.screen, ws.screen.bounds,
                             rng.integers(0, 256, (H, W, 4),
                                          dtype=np.uint8))
                loop.schedule(0.05, lambda: hammer(i + 1))

        loop.schedule_at(0.1, lambda: hammer(0))
        for i in range(40):
            loop.schedule_at(0.1 + 0.025 * i,
                             lambda t=i: server.submit_audio(
                                 0.1 + 0.025 * t, b"\x00" * 800))
        loop.run_until(20.0)
        st = server.governor.stats
        session = server.sessions[0]
        assert st["degrade_entered"] >= 1  # pressure was seen...
        assert st["degrade_exited"] >= 1  # ...and receded
        assert session.stats["audio_dropped"] > 0  # audio was shed
        assert not session.degraded
        assert_pixel_identical(rc.client, ws)  # display never lies


class TestDeterminism:
    def run_once(self, seed):
        plan = FaultPlan([LossBurst(start=0.2, duration=0.3, drop_rate=0.5),
                          Disconnect(at=0.7),
                          Corruption(start=0.9, duration=0.2, rate=0.5)],
                         seed=seed)
        loop, dial, server, ws, rc = chaos_run(plan, end=1.2,
                                               record_trace=True)
        assert_pixel_identical(rc.client, ws)
        trace = []
        for conn in dial.connections:
            trace.extend(conn.fault_trace())
        return trace, dict(server.resilience.stats), dict(rc.stats)

    def test_same_seed_byte_identical_run(self):
        # The acceptance bar for the whole harness: one seed, one
        # story — packet trace, plane counters and client counters all
        # repeat exactly.
        assert self.run_once(77) == self.run_once(77)

    def test_different_seed_different_trace(self):
        assert self.run_once(77)[0] != self.run_once(78)[0]


class TestSeededSweep:
    # ``make chaos`` runs this file at several THINC_CHAOS_SEED values
    # (with the queue sanitizer armed); each seed is a different
    # random fault schedule against a different workload.
    CHAOS_SEED = int(os.environ.get("THINC_CHAOS_SEED", "0"))

    def test_env_seeded_chaos_run(self):
        plan = FaultPlan.random(seed=1000 + self.CHAOS_SEED, horizon=2.0)
        loop, dial, server, ws, rc = chaos_run(
            plan, end=1.5, settle=12.0, workload_seed=self.CHAOS_SEED)
        assert_pixel_identical(rc.client, ws)
        assert server.resilience.stats["max_replay_bytes"] <= FULLSCREEN_RAW
        assert rc.client.stats["seq_gaps"] == 0
