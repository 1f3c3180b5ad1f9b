"""The fan-out differential conformance harness.

Every workload here is rendered three ways — classic unicast, broadcast
fan-out, and a tile wall reassembled from its sub-rectangles — and the
three results must be pixel-identical.  The broadcast plane is allowed
to change *how much work* the server does (prepare once, deliver K
times) but never *what the clients see*.
"""

import numpy as np

from repro.protocol import wire
from tests.fanout.rig import make_broadcast_rig, reassemble_wall
from tests.helpers import assert_pixel_identical, make_rig, scripted_workload

END = 0.6
SETTLE = 2.0


def _unicast_twin(width=96, height=64, seed=7):
    """A plain single-client rig running the same scripted workload."""
    loop, conn, mon, server, ws, client = make_rig(width, height)
    scripted_workload(loop, ws, end=END, seed=seed)
    loop.run_until(END + SETTLE)
    return server, ws, client


class TestBroadcastDifferential:

    def test_hundred_subscriber_broadcast_matches_unicast_twin(self):
        loop, mon, server, ws, clients = make_broadcast_rig(100)
        scripted_workload(loop, ws, end=END)
        loop.run_until(END + SETTLE)

        tserver, tws, tclient = _unicast_twin()
        assert ws.screen.fb.same_as(tws.screen.fb), \
            "twin screens diverged: workloads are not comparable"

        assert server.stats["fanout_subscribed"] == 100
        for client in clients:
            assert_pixel_identical(client, ws)
            assert client.fb.same_as(tclient.fb)

    def test_broadcast_prepares_once_per_class(self):
        """100 subscribers share one viewport class: every post-subscribe
        draw is prepared exactly once and served from cache 99 times."""
        loop, mon, server, ws, clients = make_broadcast_rig(100)
        scripted_workload(loop, ws, end=END)
        loop.run_until(END + SETTLE)

        stats = server.stats
        draws = stats["commands_translated"]
        assert draws >= 10  # the workload actually ran
        # Hits dominate: ~99 of every 100 deliveries reuse the prepared
        # payload (the initial per-client attach refreshes are the only
        # unicast misses).
        assert stats["prepare_cache_hits"] >= 99 * (draws - 1)
        assert stats["prepare_cache_hits"] > 10 * stats[
            "prepare_cache_misses"]

    def test_subscriber_cpu_is_shared_not_multiplied(self):
        """Server prepare CPU for 100 subscribers stays within 3x of the
        single-client twin: the fan-out acceptance gate (simulated
        CPU seconds, so host-independent; see docs/FANOUT.md)."""
        loop, mon, server, ws, clients = make_broadcast_rig(100)
        scripted_workload(loop, ws, end=END)
        loop.run_until(END + SETTLE)
        tserver, tws, tclient = _unicast_twin()
        assert server.stats["cpu_time"] < 3 * max(
            tserver.stats["cpu_time"], 1e-9)


class TestTileWallDifferential:

    def test_3x2_wall_reassembles_to_unicast_twin(self):
        loop, mon, server, ws, clients = make_broadcast_rig(
            6, tile_grid=(3, 2))
        scripted_workload(loop, ws, end=END)
        loop.run_until(END + SETTLE)

        wall = reassemble_wall(clients, 96, 64)
        assert np.array_equal(wall, ws.screen.fb.data), \
            "reassembled tile wall diverged from the server screen"

        tserver, tws, tclient = _unicast_twin()
        assert np.array_equal(wall, tclient.fb.data), \
            "reassembled tile wall diverged from the unicast twin"

    def test_tile_clients_view_only_their_tile(self):
        loop, mon, server, ws, clients = make_broadcast_rig(
            6, tile_grid=(3, 2))
        scripted_workload(loop, ws, end=END)
        loop.run_until(END + SETTLE)
        screen = ws.screen.fb.data
        for client in clients:
            r = client.tile_assignment.rect
            assert client.fb.data.shape == (r.height, r.width, 4)
            assert np.array_equal(
                client.fb.data,
                screen[r.y:r.y + r.height, r.x:r.x + r.width])

    def test_mirror_tile_and_unicast_coexist(self):
        """A mirror subscriber, a tile wall, and a plain unicast client
        on one server all converge to the same screen."""
        loop, mon, server, ws, clients = make_broadcast_rig(
            4, tile_grid=(2, 2))
        # Client 4: mirror subscriber; client 5: plain unicast session.
        from repro.core import THINCClient
        from repro.net import Connection, LAN_DESKTOP
        extra = []
        for subscribe in (True, False):
            conn = Connection(loop, LAN_DESKTOP, monitor=mon)
            server.attach_client(conn)
            client = THINCClient(loop, conn)
            if subscribe:
                client.request_subscribe()
            extra.append(client)
        loop.run_until(0.02)
        scripted_workload(loop, ws, end=END)
        loop.run_until(END + SETTLE)

        wall = reassemble_wall(clients, 96, 64)
        assert np.array_equal(wall, ws.screen.fb.data)
        for client in extra:
            assert_pixel_identical(client, ws)

    def test_command_spanning_all_tiles_splits_exactly(self):
        """One full-screen image crosses every tile seam; each tile gets
        byte-exactly its sub-rectangle."""
        from repro.region import Rect
        loop, mon, server, ws, clients = make_broadcast_rig(
            6, tile_grid=(3, 2))
        rng = np.random.default_rng(13)
        img = rng.integers(0, 256, (64, 96, 4), dtype=np.uint8)
        loop.schedule_at(0.05, lambda: ws.put_image(
            ws.screen, Rect(0, 0, 96, 64), img))
        loop.run_until(1.5)
        wall = reassemble_wall(clients, 96, 64)
        assert np.array_equal(wall, ws.screen.fb.data)


class TestSubscribeProtocol:

    def test_unsubscribed_on_detach(self):
        loop, mon, server, ws, clients = make_broadcast_rig(3)
        session = server.sessions[0]
        server.detach_client(session)
        # Membership is the unit's own flags: leaving the server's
        # session list takes the unit out of every route, and the plane
        # holds nothing to clean up.
        assert session not in server.sessions
        # The remaining subscribers still render exactly.
        scripted_workload(loop, ws, end=END)
        loop.run_until(END + SETTLE)
        for client in clients[1:]:
            assert_pixel_identical(client, ws)

    def test_resubscribe_switches_mode(self):
        """A mirror subscriber may re-subscribe as a tile and back."""
        loop, mon, server, ws, clients = make_broadcast_rig(
            1, tile_grid=(2, 2))
        client = clients[0]
        session = server.sessions[0]
        assert session.tile_mode
        scripted_workload(loop, ws, end=END)
        loop.run_until(END + SETTLE)
        r = client.tile_assignment.rect
        assert np.array_equal(
            client.fb.data,
            ws.screen.fb.data[r.y:r.y + r.height, r.x:r.x + r.width])
        client.request_subscribe(wire.SUBSCRIBE_MIRROR)
        loop.run_until(END + SETTLE + 2.0)
        assert not session.tile_mode
        assert session.scaler.view == ws.screen.bounds
        assert_pixel_identical(client, ws)

    def test_zoomed_tile_routes_by_its_view(self):
        """A tile member that zooms is routed by the view it zoomed to:
        the tile rectangle is the scaler's view, not a second copy the
        zoom leaves behind."""
        from repro.region import Rect
        loop, mon, server, ws, clients = make_broadcast_rig(
            1, width=64, height=64, tile_grid=(2, 2))
        client = clients[0]
        assert client.tile_assignment.rect == Rect(0, 0, 32, 32)
        view = Rect(32, 32, 32, 32)
        client.request_zoom(view)  # 1:1 onto the wall's last quarter
        loop.run_until(0.5)
        ws.fill_rect(ws.screen, Rect(40, 40, 8, 8), (200, 30, 90, 255))
        loop.run_until(1.5)
        assert server.sessions[0].scaler.view == view
        assert np.array_equal(client.fb.data, ws.screen.fb.data[32:, 32:])
        assert (client.fb.data[8:16, 8:16] == (200, 30, 90, 255)).all()
