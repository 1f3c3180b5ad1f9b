"""Heterogeneous subscriber links: class split, not worst-link punishment.

Satellite of the fan-out PR: with the adaptive encoder on, a LAN
subscriber and a congested 802.11-class subscriber of the same
broadcast must land in *different* (encoding) equivalence classes —
the congested link sheds fidelity, the LAN link keeps lossless — and
once congestion clears, a refresh restores exactness for everyone.
"""

from dataclasses import replace

import numpy as np

from repro.codec import Encoding, LinkPosture
from repro.core import THINCClient, THINCServer
from repro.display import WindowServer
from repro.net import Connection, EventLoop, LAN_DESKTOP, PDA_80211G, \
    PacketMonitor
from repro.protocol.commands import RawCommand
from repro.protocol.wire import SUBSCRIBE_TILE, SubscribeMessage
from repro.region import Rect
from tests.helpers import assert_pixel_identical

#: An 802.11g PDA squeezed to modem-class throughput (heavy contention).
CONGESTED = replace(PDA_80211G, bandwidth_bps=256_000)

W, H = 64, 48


def _split_rig():
    loop = EventLoop()
    mon = PacketMonitor()
    server = THINCServer(loop, W, H, adaptive_encoding=True)
    ws = WindowServer(W, H, driver=server.driver, clock=loop.clock)
    clients = []
    for link, buf in ((LAN_DESKTOP, None), (CONGESTED, 8192)):
        conn = Connection(loop, link, monitor=mon, send_buffer=buf)
        server.attach_client(conn)
        client = THINCClient(loop, conn)
        client.request_subscribe()
        clients.append(client)
    loop.run_until(0.01)
    return loop, server, ws, clients


def _flood(loop, ws, rng, start, end, step=0.05):
    """Photographic full-screen churn: the congested link cannot keep
    up losslessly, the LAN link barely notices."""
    t = start
    while t < end:
        img = rng.integers(0, 256, (H, W, 4), dtype=np.uint8)
        loop.schedule_at(t, lambda img=img: ws.put_image(
            ws.screen, Rect(0, 0, W, H), img))
        t += step


class TestHeterogeneousSubscribers:

    def test_postures_and_classes_split(self):
        loop, server, ws, clients = _split_rig()
        rng = np.random.default_rng(21)
        _flood(loop, ws, rng, 0.05, 1.0)
        loop.run_until(0.8)

        lan, slow = server.sessions
        p_lan = server.health.posture(lan)
        p_slow = server.health.posture(slow)
        assert p_slow is LinkPosture.DEGRADED
        assert p_lan is not LinkPosture.DEGRADED

        # One probe command through the class partitioner: the two
        # subscribers must not share an encoding class, and the
        # degraded class must have shed fidelity (LOSSY), while the
        # LAN class stays exact.
        probe = rng.integers(0, 256, (32, 48, 4), dtype=np.uint8)
        classes = list(server.plane.variants(
            RawCommand(Rect(0, 0, 48, 32), probe), server.sessions))
        assert len(classes) == 2
        by_session = {id(s): v.encoding
                      for members, v in classes for s in members}
        assert by_session[id(slow)] is Encoding.LOSSY
        assert by_session[id(lan)] is not Encoding.LOSSY

    def test_lan_subscriber_stays_exact_throughout(self):
        """Class split means the LAN peer is never punished with lossy
        payloads for the slow link's sake: at quiescence it is exact
        without any extra refresh."""
        loop, server, ws, clients = _split_rig()
        rng = np.random.default_rng(22)
        _flood(loop, ws, rng, 0.05, 1.0)
        loop.run_until(3.0)
        assert_pixel_identical(clients[0], ws)

    def test_post_refresh_exactness_after_congestion_clears(self):
        loop, server, ws, clients = _split_rig()
        rng = np.random.default_rng(23)
        _flood(loop, ws, rng, 0.05, 1.0)
        loop.run_until(1.0)
        lan, slow = server.sessions
        assert server.health.posture(slow) is LinkPosture.DEGRADED

        # Congestion clears; the degraded client asks for a repaint.
        loop.run_until(20.0)
        clients[1].request_refresh(Rect(0, 0, W, H))
        loop.run_until(40.0)
        assert server.health.posture(slow) is not LinkPosture.DEGRADED
        for client in clients:
            assert_pixel_identical(client, ws)


def _direct_rig(ever_subscribed):
    """The same heterogeneous pair as *direct* sessions, one downlink
    monitor each; optionally a wall-tile subscriber came and went
    first."""
    loop = EventLoop()
    # The driver rasterises in 64x8 bands; size the lossy floor below
    # them so the congested class really sheds fidelity.
    server = THINCServer(loop, W, H, adaptive_encoding=True)
    server.encoder_policy.min_lossy_pixels = 256
    ws = WindowServer(W, H, driver=server.driver, clock=loop.clock)
    mons, clients = [], []
    for link, buf in ((LAN_DESKTOP, None), (CONGESTED, 8192)):
        mon = PacketMonitor()
        conn = Connection(loop, link, monitor=mon, send_buffer=buf)
        server.attach_client(conn)
        clients.append(THINCClient(loop, conn))
        mons.append(mon)
    if ever_subscribed:
        # A third session takes a tile and leaves before anything
        # draws: nothing it was sent reaches the pair's links.
        server.attach_client(Connection(loop, LAN_DESKTOP))
        server.fanout.handle_subscribe(server.sessions[2], SubscribeMessage(
            SUBSCRIBE_TILE, 2, 1, 0))
        server.detach_client(server.sessions[2])
    _flood(loop, ws, np.random.default_rng(24), 0.05, 1.0)
    loop.run_until(3.0)
    return server, ws, clients, [
        [(r.time, r.direction, r.size) for r in mon.records]
        for mon in mons]


class TestPostureHookIsNotSticky:
    def test_a_departed_subscriber_leaves_direct_encoding_unchanged(self):
        """How a direct session's RAW is encoded must not depend on
        whether a subscriber *ever* existed: posture classes are always
        per session, through the one hook."""
        server, ws, clients, never = _direct_rig(ever_subscribed=False)
        _, _, _, once = _direct_rig(ever_subscribed=True)
        assert once == never
        # And per session means the congested peer went lossy alone:
        # the LAN session is exact at quiescence with no refresh.
        assert server.encoder_policy.counts[Encoding.LOSSY] > 0
        assert_pixel_identical(clients[0], ws)
