"""Fabric scaling floor: two shards drain the same load ~2x as fast.

Each shard owns a serial (simulated) prepare CPU, so the ratio is a
property of the architecture, not the host: it is measured on the
simulated clock and gated here (docs/CLUSTER.md quotes the floor).
"""

import numpy as np

from repro.cluster import ShardCoordinator
from repro.core import THINCClient
from repro.display import WindowServer
from repro.net import LAN_DESKTOP, Connection, EventLoop
from repro.region import Rect

W, H = 256, 192
SESSIONS, DRAWS = 4, 12


def drain(num_shards):
    """Simulated seconds for *num_shards* shards to drain one mirrored
    burst of 36x48 RAW blocks to SESSIONS clients, and messages sent."""
    loop = EventLoop()
    coord = ShardCoordinator(loop, num_shards, W, H)
    screens = [WindowServer(W, H, driver=s.driver, clock=loop.clock)
               for s in coord.shards]
    units = []
    for i in range(SESSIONS):
        server = coord.shards[i % num_shards]
        conn = Connection(loop, LAN_DESKTOP)
        # A distinct viewport per session: distinct scale keys miss
        # both cache levels, so the burst is prepare-CPU-bound —
        # exactly the resource sharding multiplies.
        server.attach_client(conn, viewport=(W - 8 * i, H - 6 * i))
        THINCClient(loop, conn, headless=True)
        units.append(server.sessions[-1])
    loop.run_until_idle(max_time=30)
    base = loop.now
    sent_before = sum(u.stats["messages_sent"] for u in units)
    rng = np.random.default_rng(54)
    for _ in range(DRAWS):
        # RAW blocks are the one command class whose prepare stage
        # pays real (simulated) compression CPU.
        x = int(rng.integers(0, W - 48))
        y = int(rng.integers(0, H - 36))
        img = rng.integers(0, 256, (36, 48, 4), dtype=np.uint8)
        for ws in screens:  # mirrored on every shard
            ws.put_image(ws.screen, Rect(x, y, 48, 36), img)
    loop.run_until_idle(max_time=300)
    delivered = sum(u.stats["messages_sent"] for u in units) - sent_before
    return loop.now - base, delivered


def test_two_shards_deliver_at_least_1_6x_the_throughput_of_one():
    one_s, one_sent = drain(1)
    two_s, two_sent = drain(2)
    assert one_sent == two_sent > 0
    speedup = (two_sent / two_s) / (one_sent / one_s)
    assert speedup >= 1.6, speedup
