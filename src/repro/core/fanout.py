"""The broadcast fan-out plane: one desktop, K subscribers.

THINC's central economy is that translation happens once and
preparation once per distinct viewport (``repro.core.pipeline``).  This
module names the two delivery modes built on it: a *mirror* subscriber
receives the whole desktop, and a :class:`TileWall` subscriber owns a
sub-rectangle of a large virtual framebuffer (display walls, following
the virtual-framebuffer abstraction for tiled walls in PAPERS.md).

Placement: ``repro.core.fanout`` sits *beside* the delivery stages at
core's rank in the layer map (see ``repro.analysis.layermap`` — the
module note there mirrors this one).  It depends only on the session
units beside it; the cluster fabric and the wire protocol learn about
it through two control messages (SUBSCRIBE / TILE_ASSIGN), never the
other way around.

Fan-out is routing
------------------
A mirror subscriber is an ordinary session: every session already
receives the whole desktop.  A tile subscriber is one whose
:class:`~repro.core.session_unit.SessionUnit` has ``tile_mode`` set,
and its rectangle is its scaler's view, so routing, zooming and
migration all read one rectangle.  :meth:`BroadcastPlane.route` is the
first stage of the server's one dispatch path (``THINCServer.submit``):
a translated command is offered to every session except a tile
subscriber whose tile its destination misses.
Everything after that is the ordinary path.  The prepare plane
prepares a command once per **(scale, pixel-format, encoding)
equivalence class** however many receivers share it, its posture
classes keep one congested subscriber from forcing lossy payloads on
LAN-class peers, and video frames arrive already split by QoS rung.
Every receiver takes its clone straight into its own
:class:`~repro.core.delivery.ClientBuffer`.

Slow subscribers
----------------
That buffer is the only per-session display reservoir: overwritten
commands are evicted from it, so a slow subscriber's backlog never
grows past what the screen currently shows, and past that the
governor's queue-bytes ladder (docs/HARDENING.md) bounds it exactly as
it bounds a slow unicast session.  A slow subscriber therefore costs
its peers nothing — no shared structure holds work on its behalf.
"""

from __future__ import annotations

from typing import List

from ..protocol import wire
from ..region import Rect
from .resize import DisplayScaler

__all__ = ["TileWall", "BroadcastPlane", "MODE_MIRROR", "MODE_TILE"]

#: SUBSCRIBE message modes.
MODE_MIRROR = 0
MODE_TILE = 1


class TileWall:
    """The tile partition of the virtual wall.

    Wall coordinates are the server's own framebuffer coordinates: a
    tile subscriber's scaler is ``DisplayScaler(server_size,
    (tile_w, tile_h), view_rect=tile)`` — a pure 1:1 translate-clip,
    which :mod:`repro.core.resize` maps byte-exactly.  The route stage
    offers a command to a tile only when its destination intersects
    the subscriber's view.
    """

    @staticmethod
    def grid(width: int, height: int, cols: int, rows: int) -> List[Rect]:
        """Partition ``width x height`` into ``cols x rows`` tiles.

        Row-major (``index = row * cols + col``), edges at
        ``i * extent // n`` — an exact cover: tiles are disjoint and
        their union is the full wall even when the extent does not
        divide evenly, which is what makes seam reassembly byte-exact.
        """
        tiles = []
        for row in range(rows):
            y0 = row * height // rows
            y1 = (row + 1) * height // rows
            for col in range(cols):
                x0 = col * width // cols
                x1 = (col + 1) * width // cols
                tiles.append(Rect(x0, y0, x1 - x0, y1 - y0))
        return tiles


class BroadcastPlane:
    """SUBSCRIBE handling and the route stage.

    Membership is ``tile_mode`` on each unit plus its scaler's view,
    which is a tile member's rectangle.  The plane keeps only its
    counter of SUBSCRIBEs handled, so nothing here can outlive or
    disagree with a session.
    """

    def __init__(self, server):
        self.server = server
        self.stats = {"subscribed": 0}

    def handle_subscribe(self, session, msg) -> None:
        """Wire-level SUBSCRIBE: enroll and push the mode's geometry.

        Re-subscribing moves a session between modes.  Mirror mode
        keeps the session's own viewport (the scaler already resamples
        the full desktop into it).  Tile mode carves
        tile ``msg.index`` out of a ``cols x rows`` wall partition,
        points the session's scaler at that sub-rectangle at 1:1, and
        pushes a TILE_ASSIGN plus the standard geometry + refresh
        handshake so the client repaints as its tile.
        """
        self.stats["subscribed"] += 1
        leaving_tile = session.tile_mode
        session.tile_mode = msg.mode == MODE_TILE
        if session.tile_mode:
            # Never trust client geometry past the decode bounds: this
            # handler is also reachable with locally built messages.
            # Clamp the grid so no tile can be empty (cols > width
            # would repeat edge coordinates) and the index stays in it.
            cols = max(1, min(msg.cols, self.server.width))
            rows = max(1, min(msg.rows, self.server.height))
            index = min(msg.index, cols * rows - 1)
            tile = TileWall.grid(self.server.width, self.server.height,
                                 cols, rows)[index]
            session.scaler = DisplayScaler(
                (self.server.width, self.server.height),
                (tile.width, tile.height), view_rect=tile)
            session.queue_control(wire.TileAssignMessage(
                self.server.width, self.server.height, tile))
            session.queue_control(
                wire.ScreenInitMessage(tile.width, tile.height))
            self.server._submit_refresh(session, rect=tile)
            return
        if leaving_tile:
            # Restore full-desktop geometry (the session's viewport was
            # carved down to its tile).
            size = (self.server.width, self.server.height)
            session.scaler = DisplayScaler(size, size)
            session.queue_control(wire.ScreenInitMessage(*session.viewport))
        self.server._submit_refresh(session)

    # -- the fan-out path ----------------------------------------------------

    def route(self, command, sessions) -> List:
        """The dispatch path's *route* stage: who receives *command*.

        Everyone, except tile subscribers whose view misses the
        command's destination.  With no tile subscriber this is
        *sessions* itself.
        """
        for session in sessions:
            if session.tile_mode:
                break
        else:
            return sessions
        dest = command.dest
        return [s for s in sessions if not s.tile_mode
                or not s.scaler.view.intersect(dest).empty]
