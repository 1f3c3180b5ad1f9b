"""Relay edge: routing, denial, opacity, severing, bounded pumps."""

import numpy as np

from repro.cluster import ShardCoordinator
from repro.cluster.relay import _Pump
from repro.core.resilience import (ResilienceConfig, ResilientClient,
                                   write_prelude)
from repro.net import Connection, EventLoop, LAN_DESKTOP
from repro.protocol import wire
from repro.region import Rect

from tests.helpers import assert_pixel_identical, make_shard_rig


def quick_config():
    return ResilienceConfig(
        heartbeat_interval=0.1, liveness_timeout=0.35, check_interval=0.05,
        backoff_base=0.05, backoff_jitter=0.2, detach_window=5.0)


class TestDialPath:
    def test_fresh_dials_spread_and_register_splices(self):
        loop, coord, screens, rcs = make_shard_rig(
            shards=2, clients=4, schedule_workloads=False)
        loop.run_until(0.5)
        relay = coord.relay
        assert relay.stats["routed_fresh"] == 4
        assert relay.stats["denied"] == 0
        assert set(relay.splices) == {rc.token for rc in rcs}
        assert [len(s.sessions) for s in coord.shards] == [2, 2]

    def test_clients_cannot_tell_relay_from_server(self):
        # The litmus test for wire-protocol transparency: an encrypted
        # session through the relay still converges pixel-perfectly
        # (the relay never holds the key, so any parsing past the
        # prelude would corrupt the stream).
        loop, coord, screens, rcs = make_shard_rig(
            shards=2, clients=0, encrypt_key=b"fabric-secret")
        config = quick_config()

        def dial():
            conn = Connection(loop, LAN_DESKTOP)
            coord.relay.accept(conn)
            return conn

        enc = ResilientClient(loop, dial, config=config,
                              decrypt_key=b"fabric-secret", seed=9)
        enc.start()
        loop.run_until(9.0)
        shard = coord.route_token(enc.token)
        assert enc.client.fb.same_as(screens[shard].screen.fb)

    def test_garbage_prelude_is_dropped_not_crashed(self):
        coord = ShardCoordinator(EventLoop(), 2, 96, 64,
                                 resilience=quick_config())
        conn = Connection(coord.loop, LAN_DESKTOP)
        coord.relay.accept(conn)
        conn.up.write(b"\xff" * 64)
        coord.loop.run_until(0.5)
        assert coord.relay.stats["routed_fresh"] == 0
        assert not coord.relay.splices
        assert all(not s.sessions for s in coord.shards)

    def test_a_garbage_shard_answer_closes_the_splice(self, monkeypatch):
        coord = ShardCoordinator(EventLoop(), 2, 96, 64,
                                 resilience=quick_config())
        for server in coord.shards:
            monkeypatch.setattr(
                server.resilience, "accept",
                lambda backhaul, viewport=None: backhaul.down.write(
                    b"\xff" * 64))
        conn = Connection(coord.loop, LAN_DESKTOP)
        received = []
        conn.down.connect(received.append)
        coord.relay.accept(conn)
        write_prelude(conn.up, wire.ReconnectRequestMessage(0, 0))
        coord.loop.run_until(0.5)
        assert coord.relay.stats["routed_fresh"] == 1
        assert conn.closed and not coord.relay.splices
        assert coord.relay.stats["bytes_down"] == 0 and not received

    def test_full_fabric_denies_with_typed_message(self):
        loop, coord, screens, rcs = make_shard_rig(
            shards=2, clients=0, schedule_workloads=False)
        for server in coord.shards:
            server.governor.check_admission = lambda: "full"
        config = quick_config()

        def dial():
            conn = Connection(loop, LAN_DESKTOP)
            coord.relay.accept(conn)
            return conn

        rc = ResilientClient(loop, dial, config=config, seed=3)
        rc.start()
        loop.run_until(1.0)
        assert coord.relay.stats["denied"] > 0
        assert rc.stats["denials"] > 0       # the typed denial arrived
        assert rc.token == 0                 # never attached


class TestSevering:
    def test_sever_forces_redial_and_reattach(self):
        loop, coord, screens, rcs = make_shard_rig(
            shards=2, clients=1, schedule_workloads=False)
        loop.run_until(0.5)
        rc = rcs[0]
        token = rc.token
        dials_before = rc.stats["dials"]
        coord.relay.sever(token)
        assert token not in coord.relay.splices
        loop.run_until(4.0)
        # Same token, new splice: the resilience plane resumed it.
        assert rc.token == token
        assert rc.stats["dials"] > dials_before
        assert coord.relay.stats["routed_resumed"] >= 1
        assert token in coord.relay.splices

    def test_sever_unknown_token_is_a_noop(self):
        coord = ShardCoordinator(EventLoop(), 2, 96, 64)
        coord.relay.sever(12345)
        assert coord.relay.stats["severed"] == 0


class TestPumps:
    def test_a_chunk_larger_than_the_room_is_split(self):
        loop = EventLoop()
        conn = Connection(loop, LAN_DESKTOP, send_buffer=4096)
        received = bytearray()
        conn.up.connect(received.extend)
        pump = _Pump(loop, conn.up, 1 << 20, lambda: None)
        data = bytes(range(256)) * 64
        pump.push(data)
        assert pump.moved == 4096 and pump.buffered == len(data) - 4096
        loop.run_until(1.0)
        assert bytes(received) == data
        assert pump.moved == len(data) and pump.buffered == 0

    def test_a_stalled_client_leg_overflows_and_the_client_recovers(self):
        loop, coord, screens, rcs = make_shard_rig(
            shards=2, clients=1, schedule_workloads=False)
        loop.run_until(0.5)
        rc = rcs[0]
        splice = coord.relay.splices[rc.token]
        splice.down.limit = 1024
        splice.client_conn.down.close()  # the client leg stops draining
        ws = screens[splice.shard]
        ws.put_image(ws.screen, Rect(0, 0, 32, 32), np.random.default_rng(
            1).integers(0, 256, (32, 32, 4), dtype=np.uint8))
        loop.run_until(1.0)
        assert coord.relay.stats["overflows"] == 1
        assert splice.down.closed and splice.backhaul.closed
        loop.run_until(6.0)
        assert rc.attached and rc.stats["dials"] == 2
        assert_pixel_identical(rc.client, screens[
            coord.route_token(rc.token)])
