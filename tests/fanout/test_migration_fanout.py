"""Cluster migration × fan-out: subscriptions survive the move.

A *subscribed* session migrated between shards mid-workload lands on
the target shard with its membership (a tile's flag and view, carried
in the frozen blob) and ends pixel-identical to an uninterrupted unicast
twin.  The same move under a random fault schedule is a row of
tests/scenario/test_regressions.py.
"""

import numpy as np

from repro.protocol import wire

from tests.helpers import assert_pixel_identical, make_shard_rig

SETTLE = 12.0


def _subscribe_and_migrate(loop, coord, rcs, mode=wire.SUBSCRIBE_MIRROR,
                           cols=0, rows=0, index=0, settle=SETTLE):
    """Attach, subscribe the first client, migrate it at t=1.0."""
    loop.run_until(0.6)
    token = rcs[0].token
    assert token, "client never attached"
    rcs[0].client.request_subscribe(mode, cols, rows, index)
    loop.run_until(1.0)
    source = coord.route_token(token)
    assert coord.shards[source].fanout.stats["subscribed"] >= 1
    target = (source + 1) % len(coord.shards)
    successor = coord.migrate(token, target)
    loop.run_until(settle)
    return token, source, target, successor


class TestMigrationWithFanout:

    def test_mirror_subscription_survives_migration(self):
        loop, coord, screens, rcs = make_shard_rig(shards=2, clients=2)
        token, source, target, successor = _subscribe_and_migrate(
            loop, coord, rcs)
        # The successor carries its mirror membership to the target.
        assert successor in coord.shards[target].sessions
        assert not successor.tile_mode
        assert successor.scaler.view == screens[target].screen.bounds
        # Pixel-identical to the target shard's live screen and to the
        # unicast twin that never moved (mirrored workloads).
        assert_pixel_identical(rcs[0].client, screens[target])
        assert_pixel_identical(rcs[1].client, screens[
            coord.route_token(rcs[1].token)])
        assert np.array_equal(rcs[0].client.fb.data, rcs[1].client.fb.data)

    def test_tile_subscription_survives_migration(self):
        loop, coord, screens, rcs = make_shard_rig(shards=2, clients=1)
        token, source, target, successor = _subscribe_and_migrate(
            loop, coord, rcs, mode=wire.SUBSCRIBE_TILE,
            cols=3, rows=2, index=4, settle=SETTLE + 4.0)
        assert successor.tile_mode
        tile = successor.scaler.view
        assert tile == rcs[0].client.tile_assignment.rect
        # The tile client's framebuffer equals its crop of the target
        # shard's screen.
        fb = rcs[0].client.fb
        assert fb.data.shape == (tile.height, tile.width, 4)
        assert np.array_equal(
            fb.data,
            screens[target].screen.fb.data[tile.y:tile.y + tile.height,
                                           tile.x:tile.x + tile.width])

    def test_source_shard_forgets_the_subscriber(self):
        loop, coord, screens, rcs = make_shard_rig(shards=2, clients=1)
        token, source, target, successor = _subscribe_and_migrate(
            loop, coord, rcs)
        src = coord.shards[source]
        assert src.fanout.stats["subscribed"] >= 1
        assert all(s.token != token for s in src.sessions)
