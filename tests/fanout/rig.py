"""Rig builders shared by the fan-out differential harness.

The harness renders each workload three ways — unicast per client,
broadcast, and tile-wall-reassembled — and asserts pixel identity, so
the builders here keep geometry, link and workload parameters in one
place where the three renderings cannot drift apart.
"""

import numpy as np

from repro.core import THINCClient, THINCServer
from repro.core.governor import ServerBudget
from repro.display import WindowServer
from repro.net import Connection, EventLoop, LAN_DESKTOP, PacketMonitor
from repro.protocol import wire

from tests.helpers import scripted_workload  # noqa: F401  (re-export)


def make_broadcast_rig(subscribers, width=96, height=64, link=LAN_DESKTOP,
                       tile_grid=None, subscribe=True, send_buffer=None,
                       **server_kw):
    """One server with *subscribers* fan-out clients attached.

    Mirror mode by default; pass ``tile_grid=(cols, rows)`` to assign
    client *i* tile ``i % (cols*rows)``.  Set ``subscribe=False`` to
    leave the clients as plain unicast sessions (the differential
    twin).  *link* may be a sequence, one link per subscriber in
    attach order.  Returns ``(loop, mon, server, ws, clients)``.
    """
    loop = EventLoop()
    mon = PacketMonitor()
    # Fan-out exists to go past the unicast session budget, so admit
    # at least the requested wall of subscribers (plus twin headroom).
    server_kw.setdefault(
        "server_budget",
        ServerBudget(max_sessions=max(64, 2 * subscribers + 8)))
    server = THINCServer(loop, width, height, **server_kw)
    ws = WindowServer(width, height, driver=server.driver, clock=loop.clock)
    clients = []
    links = link if isinstance(link, (list, tuple)) \
        else [link] * subscribers
    for i in range(subscribers):
        conn = Connection(loop, links[i], monitor=mon,
                          send_buffer=send_buffer)
        server.attach_client(conn)
        client = THINCClient(loop, conn)
        if subscribe:
            if tile_grid is not None:
                cols, rows = tile_grid
                client.request_subscribe(wire.SUBSCRIBE_TILE, cols, rows,
                                         i % (cols * rows))
            else:
                client.request_subscribe()
        clients.append(client)
    # Let the SUBSCRIBE frames arrive before any workload draws.
    loop.run_until(0.01)
    return loop, mon, server, ws, clients


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
