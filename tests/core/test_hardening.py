"""Server hardening: hostile input stays session-scoped.

Covers the blast-radius contract (a poisoned session is quarantined,
co-resident honest sessions converge untouched), the geometry clamps in
``handle_client_message``, and the resilience-plane memory caps (replay
journal and detach-window buffers) driven by the per-session Budget.
"""

import numpy as np

from repro.core import Budget
from repro.core.resilience import ResilienceConfig
from repro.net.faults import Disconnect, FaultPlan
from repro.protocol import wire
from repro.protocol.limits import LIMITS
from repro.region import Rect

from tests.helpers import (GREEN, RED, assert_pixel_identical, make_rig,
                           make_multi_rig, make_resilient_rig,
                           scripted_workload)


class TestBlastRadius:
    def test_poisoned_session_does_not_touch_neighbours(self):
        loop, mon, server, ws, clients = make_multi_rig([None, None])
        victim, honest = server.sessions[0], server.sessions[1]
        scripted_workload(loop, ws, end=1.0)
        # Mid-workload, session 0's uplink turns to garbage.
        loop.schedule_at(0.4, lambda: victim.connection.up.write(
            wire.frame_message(250, b"\xde\xad\xbe\xef")))
        loop.run_until(5.0)
        assert victim.quarantined
        assert victim not in server.sessions
        assert not honest.quarantined
        assert_pixel_identical(clients[1], ws)

    def test_garbage_flood_never_raises_out_of_the_loop(self):
        loop, conn, mon, server, ws, client = make_rig()
        rng = np.random.default_rng(3)
        for i in range(50):
            blob = rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
            loop.schedule_at(0.01 * i,
                             lambda b=blob: conn.up.write(
                                 b[:conn.up.writable_bytes()]))
        ws.fill_rect(ws.screen, Rect(0, 0, 16, 16), RED)
        loop.run_until(5.0)  # an escaping exception would surface here
        assert server.governor.stats.quarantined == 1


class TestGeometryClamps:
    def test_resize_is_clamped_to_viewport_limits(self):
        loop, conn, mon, server, ws, client = make_rig()
        session = server.sessions[0]
        server.handle_client_message(
            session, wire.ResizeMessage(10 ** 9, 5))
        assert session.viewport == (LIMITS.max_viewport_dim, 5)
        server.handle_client_message(session, wire.ResizeMessage(0, -7))
        assert session.viewport == (1, 1)
        loop.run_until(2.0)  # the pushed refreshes must not crash

    def test_refresh_rect_clamped_to_framebuffer(self):
        loop, conn, mon, server, ws, client = make_rig()
        session = server.sessions[0]
        ws.fill_rect(ws.screen, Rect(0, 0, 96, 64), GREEN)
        # Mostly off-screen, and entirely off-screen: neither crashes.
        server.handle_client_message(
            session, wire.RefreshRequestMessage(Rect(90, 60, 500, 500)))
        server.handle_client_message(
            session, wire.RefreshRequestMessage(Rect(5000, 5000, 10, 10)))
        loop.run_until(3.0)
        assert_pixel_identical(client, ws)

    def test_zoom_rect_clamped_to_framebuffer(self):
        loop, conn, mon, server, ws, client = make_rig()
        session = server.sessions[0]
        ws.fill_rect(ws.screen, Rect(0, 0, 96, 64), RED)
        server.handle_client_message(
            session, wire.ZoomRequestMessage(Rect(80, 50, 400, 400)))
        loop.run_until(2.0)
        view = session.scaler.view
        screen = Rect(0, 0, 96, 64)
        assert view == view.intersect(screen)
        # Entirely off-screen zooms out to the full desktop.
        server.handle_client_message(
            session, wire.ZoomRequestMessage(Rect(900, 900, 50, 50)))
        loop.run_until(4.0)
        assert session.scaler.view == screen


class TestResiliencePlaneCaps:
    def test_replay_journal_bounded_by_budget(self):
        loop, dial, server, ws, rc = make_resilient_rig(
            budget=Budget(max_journal_bytes=5_000))
        rc.start()
        scripted_workload(loop, ws, end=1.5)
        loop.run_until(4.0)
        session = server.sessions[0]
        guard = session.guard
        assert server.resilience.guards[guard.token] is guard
        assert guard.log_limit <= 5_000
        assert guard.log_bytes <= guard.log_limit

    def test_detached_session_buffers_capped_before_window_expires(self):
        # The client disconnects and stays away (huge backoff); the
        # detach window is far longer than the test.  The plane must
        # still drop the absent session's queue as soon as it crosses
        # the session budget — absence is not a license to balloon.
        server_cfg = ResilienceConfig(
            heartbeat_interval=0.1, liveness_timeout=0.35,
            check_interval=0.05, backoff_base=0.05, detach_window=600.0)
        client_cfg = ResilienceConfig(
            heartbeat_interval=0.1, liveness_timeout=0.35,
            check_interval=0.05, backoff_base=1000.0, backoff_jitter=0.0)
        loop, dial, server, ws, rc = make_resilient_rig(
            plan=FaultPlan([Disconnect(at=0.5)], seed=4),
            config=server_cfg, client_config=client_cfg,
            budget=Budget(max_queue_bytes=20_000))
        rc.start()
        rng = np.random.default_rng(11)
        # Paint incompressible 16x16 noise tiles over a 6x4 grid: each
        # tile (~1 KB) drains instantly while attached, but once the
        # client is gone the tiles accumulate toward full-screen
        # coverage (~24.8 KB RAW) and cross the 20 KB session budget.
        for i in range(60):
            x, y = 16 * (i % 6), 16 * ((i // 6) % 4)
            loop.schedule_at(0.1 * i, lambda x=x, y=y: ws.put_image(
                ws.screen, Rect(x, y, 16, 16),
                rng.integers(0, 256, (16, 16, 4), dtype=np.uint8)))
        loop.run_until(8.0)
        st = server.resilience.stats
        assert st.disconnects >= 1
        # Dropped within 8 simulated seconds of a 600-second window:
        # the budget, not the window, bounded the absent session.
        assert st.queues_dropped >= 1
        assert server.governor.stats.evicted == 0
        for session in server.sessions:
            assert session.buffer.pending_bytes() <= 20_000
