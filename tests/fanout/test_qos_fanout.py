"""Fan-out × QoS: subscribers walk the video ladder like direct sessions.

Before the server's dispatch path was unified, one fan-out subscriber
silently switched the QoS plane off for every session on the server
(``submit`` forked on ``fanout.active`` before it ever looked at
``qos``): the contended scenario below polled the ladder 0 times and
shipped 4x the bytes.  These tests pin the composition: a subscriber is
routed, degraded and classed by the same stages, in the same order, as
a direct session.

``make chaos`` runs this file at THINC_CHAOS_SEED 11, 23 and 47 with
the queue sanitizer armed; the default run uses seed 0.
"""

import os

from repro.core import THINCClient, THINCServer
from repro.core.qos import QosConfig
from repro.display import WindowServer
from repro.net import Connection, EventLoop, LAN_DESKTOP, PacketMonitor
from repro.net.faults import FaultPlan
from repro.protocol import wire
from repro.region import Rect
from repro.video.stream import SyntheticVideoClip

from tests.core.test_qos import (THIN_256K, make_qos_rig, mirror,
                                 play_clip, run_scenario)
from tests.helpers import assert_pixel_identical, fast_qos

CHAOS_SEED = int(os.environ.get("THINC_CHAOS_SEED", "0"))


def _trace(mon):
    return [(r.time, r.direction, r.size) for r in mon.records]


def _saturated():
    """One mirror subscriber on the 256 kbit/s link, playing a 64x48
    clip at 24 fps — ~3.5x what the link carries."""
    loop, conn, mon, server, ws, client = make_qos_rig(
        width=64, height=48, link=THIN_256K, qos=QosConfig())
    mirror(server)
    clip = SyntheticVideoClip(width=64, height=48, fps=24, duration=2.0)
    play_clip(loop, ws, clip, Rect(0, 0, 64, 48))
    loop.run_until_idle(max_time=600)
    return mon, server, ws, client


@fast_qos()
class TestSubscriberWalksTheLadder:
    """A mirror subscriber is an ordinary session to every stage of
    the dispatch path, so it walks the QoS ladder as its direct twin in
    tests/core/test_qos.py does."""

    def test_saturating_clip_degrades_the_subscriber_like_its_twin(self):
        _, fanned, ws, client = _saturated()
        assert fanned.stats["fanout_subscribed"] == 1
        assert fanned.stats["qos_polls"] > 0
        assert fanned.stats["qos_rungs_down"] >= 1
        assert fanned.stats["qos_frames_dropped"] > 0
        assert_pixel_identical(client, ws)

    def test_subscriber_recovers_pixel_exact_to_rung_0(self):
        # The QoS acceptance scenario (video + typing echo, bursty
        # cross traffic that clears by 1.5 s): down the ladder, then
        # back up.
        plan = FaultPlan.bursty_cross_traffic(
            CHAOS_SEED, start=0.3, duration=1.2,
            period=0.2, burst=0.12, drop_rate=1.0)
        _, _, fanned, ws, client, _ = run_scenario(
            plan=plan, qos=QosConfig(), subscribe=True)
        assert fanned.stats["fanout_subscribed"] == 1
        assert fanned.stats["qos_rungs_down"] >= 1
        assert fanned.stats["qos_recoveries"] >= 1
        assert fanned.sessions[0].qos_rung == 0
        assert_pixel_identical(client, ws)


def _lan_wall(clients, tile_grid=None, **server_kw):
    loop = EventLoop()
    mon = PacketMonitor()
    server = THINCServer(loop, 64, 48, **server_kw)
    ws = WindowServer(64, 48, driver=server.driver, clock=loop.clock)
    out = []
    for i in range(clients):
        conn = Connection(loop, LAN_DESKTOP, monitor=mon)
        server.attach_client(conn)
        client = THINCClient(loop, conn)
        if tile_grid is not None:
            client.request_subscribe(wire.SUBSCRIBE_TILE, *tile_grid, i)
        else:
            client.request_subscribe()
        out.append(client)
    loop.run_until(0.01)
    return loop, mon, server, ws, out


class TestComposition:
    def test_same_rung_subscribers_share_one_transformed_variant(
            self, monkeypatch):
        # Recovery far past the clip: both stay on the rung the test
        # parks them at, however clear the LAN probes.
        monkeypatch.setattr("repro.core.qos.RECOVER_POLLS", 10_000)
        loop, mon, server, ws, clients = _lan_wall(2, qos=QosConfig())
        for session in server.sessions:
            session.qos_rung = 2
        misses = server.plane.stats["cache_misses"]
        clip = SyntheticVideoClip(width=32, height=24, fps=24,
                                  duration=0.5)
        play_clip(loop, ws, clip, Rect(0, 0, 64, 48), start=0.02)
        loop.run_until_idle(max_time=60)
        on_grid = (clip.frame_count + 1) // 2
        stats = server.qos.stats
        # Counters count sessions; the prepare plane counts work.
        assert stats["frames_degraded"] == 2 * on_grid
        assert stats["frames_dropped"] == 2 * (clip.frame_count - on_grid)
        assert stats["frames_passed"] == 0
        # One miss per on-grid frame, shared by both viewers, plus the
        # lossless teardown repaint each degraded viewer is owed.
        assert server.plane.stats["cache_misses"] - misses == on_grid + 2
        for client in clients:
            vs = next(iter(client.video_stats.values()))
            assert len(vs.arrivals) == on_grid
            assert_pixel_identical(client, ws)

    def test_tile_that_misses_the_stream_gets_no_video(self):
        loop, mon, server, ws, clients = _lan_wall(
            2, tile_grid=(2, 1), qos=QosConfig())
        clip = SyntheticVideoClip(width=16, height=12, fps=24,
                                  duration=0.5)
        # Inside tile 0.
        play_clip(loop, ws, clip, Rect(0, 0, 32, 24), start=0.02)
        loop.run_until_idle(max_time=60)
        left, right = clients
        assert left.stats["bytes_by_kind"].get("vframe", 0) > 0
        assert right.stats["bytes_by_kind"].get("vframe", 0) == 0
        # Routed out before the QoS stage: never polled, never counted.
        assert server.qos.stats["frames_passed"] == clip.frame_count
        assert server.qos.stats["polls"] <= clip.frame_count

    def test_lan_subscriber_with_qos_is_byte_identical_to_no_qos(self):
        traces, frames = [], []
        for qos in (None, QosConfig()):
            kw = {} if qos is None else {"qos": qos}
            loop, mon, server, ws, clients = _lan_wall(1, **kw)
            clip = SyntheticVideoClip(width=32, height=24, fps=24,
                                      duration=0.5)
            play_clip(loop, ws, clip, Rect(8, 8, 48, 32), start=0.02)
            ws.fill_rect(ws.screen, Rect(0, 0, 8, 48), (9, 90, 200, 255))
            loop.run_until_idle(max_time=60)
            assert_pixel_identical(clients[0], ws)
            traces.append(_trace(mon))
            frames.append(clients[0].fb)
        assert traces[0] == traces[1]
        assert frames[0].same_as(frames[1])
