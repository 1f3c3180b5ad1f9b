"""Rig builders shared by the fan-out differential harness.

The harness renders each workload three ways — unicast per client,
broadcast, and tile-wall-reassembled — and asserts pixel identity, so
the builders here keep geometry, link and workload parameters in one
place where the three renderings cannot drift apart.
"""

import numpy as np

from repro.cluster.scenario import ClientSpec, Op, Scenario
from repro.core.governor import ServerBudget
from repro.net import LAN_DESKTOP

from tests.helpers import scripted_workload  # noqa: F401  (re-export)


def make_broadcast_rig(subscribers, width=96, height=64, link=LAN_DESKTOP,
                       tile_grid=None, subscribe=True, send_buffer=None,
                       **server_kw):
    """``(loop, mon, server, ws, clients)``: *subscribers* fan-out
    clients (*link* may be one link per subscriber), subscribed before
    any draw.

    Mirror mode by default; ``tile_grid=(cols, rows)`` gives client *i*
    tile ``i % (cols*rows)``; ``subscribe=False`` leaves them plain
    unicast sessions (the differential twin).  Fan-out exists to go
    past the unicast session budget, so the default admits the wall.
    """
    server_kw.setdefault("server_budget", ServerBudget(
        max_sessions=max(64, 2 * subscribers + 8)))
    links = link if isinstance(link, (list, tuple)) else [link] * subscribers
    run = Scenario(width, height, server=server_kw, clients=tuple(
        ClientSpec(l, send_buffer=send_buffer) for l in links), ops=tuple(
        Op(0.0, "subscribe", i, tile_grid + (i % (tile_grid[0] * tile_grid[1]),)
           if tile_grid else ()) for i in range(subscribers * subscribe))
    ).build()
    run.run_until(0.01)
    return run.loop, run.monitor, run.servers[0], run.screens[0], run.clients


def reassemble_wall(clients, width, height):
    """Stitch tile subscribers' framebuffers back into one wall image.

    Asserts every wall pixel is covered exactly once — a seam gap or
    overlap is a harness bug worth failing loudly on.
    """
    wall = np.zeros((height, width, 4), dtype=np.uint8)
    covered = np.zeros((height, width), dtype=np.uint8)
    for client in clients:
        assign = client.tile_assignment
        assert assign is not None, "tile client never got TILE_ASSIGN"
        r = assign.rect
        assert (assign.wall_w, assign.wall_h) == (width, height)
        wall[r.y:r.y + r.height, r.x:r.x + r.width] = client.fb.data
        covered[r.y:r.y + r.height, r.x:r.x + r.width] += 1
    assert int(covered.min()) == 1 and int(covered.max()) == 1, \
        "tile assignments do not partition the wall exactly once"
    return wall
