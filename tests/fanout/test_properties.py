"""Hypothesis properties over random fan-out schedules.

Random interleavings of draws, subscribe/mode churn, viewport resizes
and PR 4 fault plans, with the invariants that must hold at
quiescence regardless of the schedule:

* a stable mirror subscriber is pixel-identical to the screen;
* a faulted (reconnecting) subscriber converges after resync;
* a tile subscriber's framebuffer equals its tile crop;
* the prepare cache is within its bound;
* the plane's subscribe/unsubscribe accounting matches membership.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import THINCClient
from repro.net import Connection, LAN_DESKTOP
from repro.net.faults import FaultPlan
from repro.protocol import wire
from repro.region import Rect
from tests.helpers import assert_pixel_identical, make_resilient_rig

W, H = 64, 48
SETTLE = 12.0


def _events(data):
    """Draw a random schedule of (time, op, args) events."""
    n = data.draw(st.integers(4, 12), label="events")
    out = []
    for i in range(n):
        t = 0.1 + i * (1.4 / n)
        op = data.draw(st.sampled_from(
            ("fill", "image", "mode", "resize")), label=f"op{i}")
        out.append((t, op))
    return out


class TestRandomSchedules:

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(data=st.data())
    def test_schedule_invariants_at_quiescence(self, data):
        chaos = data.draw(st.integers(0, 2 ** 16), label="chaos_seed")
        plan = FaultPlan.random(seed=1000 + chaos, horizon=1.5)
        loop, dial, server, ws, rc = make_resilient_rig(
            width=W, height=H, plan=plan)
        rng = np.random.default_rng(chaos)

        # A stable mirror subscriber on a clean link, and a churn
        # client that hops between mirror and tile modes / viewports.
        plain = []
        for _ in range(2):
            conn = Connection(loop, LAN_DESKTOP)
            server.attach_client(conn)
            plain.append(THINCClient(loop, conn))
        stable, churn = plain
        stable.request_subscribe()
        churn.request_subscribe()
        # The faulted resilient client subscribes over its dialled
        # connection once attached.
        loop.schedule_at(0.4, lambda: rc.client.request_subscribe())

        def fire(op):
            x = int(rng.integers(0, W - 8))
            y = int(rng.integers(0, H - 8))
            w = int(rng.integers(4, min(24, W - x)))
            h = int(rng.integers(4, min(24, H - y)))
            if op == "fill":
                color = tuple(int(v) for v in rng.integers(0, 256, 3))
                ws.fill_rect(ws.screen, Rect(x, y, w, h), color + (255,))
            elif op == "image":
                img = rng.integers(0, 256, (h, w, 4), dtype=np.uint8)
                ws.put_image(ws.screen, Rect(x, y, w, h), img)
            elif op == "mode":
                if rng.integers(0, 2):
                    cols = int(rng.integers(1, 4))
                    rows = int(rng.integers(1, 4))
                    index = int(rng.integers(0, cols * rows))
                    churn.request_subscribe(wire.SUBSCRIBE_TILE,
                                            cols, rows, index)
                else:
                    churn.request_subscribe(wire.SUBSCRIBE_MIRROR)
            elif op == "resize":
                # Resizing the *stable* subscriber would break the
                # pixel-compare; churn takes the geometry abuse.
                churn.request_resize(int(rng.integers(16, 2 * W)),
                                     int(rng.integers(16, 2 * H)))

        for t, op in _events(data):
            loop.schedule_at(t, lambda op=op: fire(op))
        loop.run_until(SETTLE)

        # -- invariants -------------------------------------------------
        assert_pixel_identical(stable, ws)
        assert_pixel_identical(rc.client, ws)

        fanout = server.fanout
        stats = fanout.stats
        assert stats["subscribed"] - stats["unsubscribed"] == len(
            fanout.subscribers())
        assert server.plane.cache_size() <= server.plane.cache_entries

        churn_session = next(
            (s for s in server.sessions
             if fanout.is_tile(s) and s.connection is not None
             and fanout.is_subscriber(s)), None)
        if churn_session is not None and churn.tile_assignment and \
                churn.fb.data.shape[:2] == (
                    churn_session.scaler.view.height,
                    churn_session.scaler.view.width):
            r = churn_session.scaler.view
            assert np.array_equal(
                churn.fb.data,
                ws.screen.fb.data[r.y:r.y + r.height, r.x:r.x + r.width])
