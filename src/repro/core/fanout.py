"""The broadcast fan-out plane: one desktop, K subscribers.

THINC's central economy is that translation happens once and
preparation once per distinct viewport (``repro.core.pipeline``).  This
module promotes that sharing into a first-class delivery mode: a
:class:`BroadcastPlane` through which one desktop's translated command
stream is prepared exactly once per **(scale, pixel-format, encoding)
equivalence class** and relayed to any number of subscriber sessions,
plus a :class:`TileWall` mode where each subscriber owns a
sub-rectangle of a large virtual framebuffer (display walls, following
the virtual-framebuffer abstraction for tiled walls in PAPERS.md).

Placement: ``repro.core.fanout`` sits *beside* the delivery stages at
core's rank in the layer map (see ``repro.analysis.layermap`` — the
module note there mirrors this one).  It depends only on the prepare
plane below it and the session units beside it; the cluster fabric and
the wire protocol learn about it through two control messages
(SUBSCRIBE / TILE_ASSIGN), never the other way around.

Delivery model
--------------
Subscribers remain ordinary :class:`~repro.core.session_unit.
SessionUnit`\\ s — they flush, encrypt, journal and migrate exactly like
unicast sessions — but display commands reach them through a
per-subscriber **bounded relay queue** of references into the prepare
cache rather than through a private prepare pass:

1. :meth:`BroadcastPlane.route` — the first stage of the server's one
   dispatch path (``THINCServer.submit``) — offers each translated
   command to mirror subscribers always and to tile subscribers only
   when the command's destination intersects their tile.
2. The prepare plane's :meth:`~repro.core.pipeline.PreparePlane.
   variants` partitions receivers into posture equivalence classes
   (so one congested subscriber never forces lossy payloads on its
   LAN-class peers — every session's posture comes from the server's
   one :class:`~repro.core.link_health.LinkHealth` probe) and
   :meth:`BroadcastPlane.relay`, the path's sink stage, **pins** each
   class's entry in the cache while any relay queue still references
   it.  Video frames arrive here already split by QoS rung, so
   same-rung subscribers share one transformed variant.
3. Draining moves prepared clones into the subscriber's normal buffer
   stage; the clamped pipe tail keeps per-subscriber ordering intact.

Slow-subscriber ladder
----------------------
A subscriber whose relay queue exceeds its byte bound climbs a
three-rung ladder (each rung escalates only if the previous one fires
again within ``ladder_cooldown``; quiet subscribers de-escalate):

1. **coalesce-to-refresh** — drop the relay backlog and push a
   row-banded full refresh (the governor's own coalesce economics);
2. **drop-to-keyframe** — drop the relay backlog *and* the buffered
   queue, then push one monolithic keyframe refresh;
3. **evict** — hand the session to the PR 5 governor ladder's
   quarantine (typed denial, detach, budget eviction accounting).

Because rungs 1–2 end with a refresh of current screen content, a
surviving subscriber is always pixel-identical to a dedicated unicast
twin once the stream quiesces — the property the differential harness
in ``tests/fanout`` asserts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..protocol import wire
from ..region import Rect
from . import sanitizer
from .resize import DisplayScaler

__all__ = ["FanoutConfig", "TileWall", "BroadcastPlane",
           "MODE_MIRROR", "MODE_TILE"]

#: SUBSCRIBE message modes.
MODE_MIRROR = 0
MODE_TILE = 1


@dataclass(frozen=True)
class FanoutConfig:
    """Bounds and cadences for the broadcast plane."""

    #: Relay queue bytes (prepared wire size) above which the
    #: slow-subscriber ladder fires.
    relay_bytes: int = 1 << 20
    #: Buffered-session backlog above which draining pauses and the
    #: relay holds entries (pinned) instead of deepening the buffer.
    subscriber_backlog_bytes: int = 256 << 10
    #: A rung escalates only when the previous rung fired within this
    #: many (simulated) seconds; otherwise the ladder resets to rung 1.
    ladder_cooldown: float = 1.0
    #: Retry cadence for a paused relay drain.
    drain_interval: float = 0.01


class _Subscriber:
    """Relay-side state for one subscribed session (plane-owned: the
    session unit itself stays serialization-clean)."""

    __slots__ = ("session", "tile", "queue", "queued_bytes", "rung",
                 "last_rung_at", "drain_scheduled")

    def __init__(self, session, tile: Optional[Rect]):
        self.session = session
        self.tile = tile
        # FIFO of (cache_key, entry, wire_bytes); every queued key
        # holds one pin on the prepare cache.
        self.queue: "deque[Tuple[Tuple, list, int]]" = deque()
        self.queued_bytes = 0
        self.rung = 0
        self.last_rung_at = -1e9
        self.drain_scheduled = False


class TileWall:
    """The tile partition of the virtual wall.

    Wall coordinates are the server's own framebuffer coordinates: a
    tile subscriber's scaler is ``DisplayScaler(server_size,
    (tile_w, tile_h), view_rect=tile)`` — a pure 1:1 translate-clip,
    which :mod:`repro.core.resize` maps byte-exactly.  Which tile a
    subscriber owns is relay-side state (``_Subscriber.tile``); the
    route stage offers a command to a tile only when its destination
    intersects it.
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
    """Fan one translated stream out to mirror and tile subscribers."""

    def __init__(self, server, config: Optional[FanoutConfig] = None):
        self.server = server
        self.config = config or FanoutConfig()
        self._subs: Dict[object, _Subscriber] = {}
        self.stats = {
            "subscribed": 0, "unsubscribed": 0, "commands_relayed": 0,
            "relay_held": 0, "coalesces": 0, "keyframes": 0,
            "evictions": 0,
        }

    # -- membership ----------------------------------------------------------

    @property
    def active(self) -> bool:
        return bool(self._subs)

    def is_subscriber(self, session) -> bool:
        return session in self._subs

    def is_tile(self, session) -> bool:
        sub = self._subs.get(session)
        return sub is not None and sub.tile is not None

    def subscribers(self) -> List:
        return [sub.session for sub in self._subs.values()]

    def tile_of(self, session) -> Optional[Rect]:
        """The wall rectangle owned by *session*, or ``None`` for
        mirror subscribers and strangers."""
        sub = self._subs.get(session)
        return sub.tile if sub is not None else None

    def subscribe(self, session, tile: Optional[Rect] = None) -> None:
        """Enroll *session* as a mirror (``tile=None``) or tile-wall
        subscriber.  Idempotent per session; re-subscribing moves the
        session between modes.
        """
        self.unsubscribe(session)
        self._subs[session] = _Subscriber(session, tile)
        self.stats["subscribed"] += 1

    def unsubscribe(self, session) -> None:
        """Drop *session* from the plane, releasing its relay pins.
        Idempotent; called by ``THINCServer.detach_client``."""
        sub = self._subs.pop(session, None)
        if sub is None:
            return
        self._clear_relay(sub)
        self.stats["unsubscribed"] += 1

    def handle_subscribe(self, session, msg) -> None:
        """Wire-level SUBSCRIBE: enroll and push the mode's geometry.

        Mirror mode keeps the session's own viewport (the scaler
        already resamples the full desktop into it).  Tile mode carves
        tile ``msg.index`` out of a ``cols x rows`` wall partition,
        points the session's scaler at that sub-rectangle at 1:1, and
        pushes a TILE_ASSIGN plus the standard geometry + refresh
        handshake so the client repaints as its tile.
        """
        if msg.mode == MODE_TILE:
            # Never trust client geometry past the decode bounds: this
            # handler is also reachable with locally built messages.
            # Clamp the grid so no tile can be empty (cols > width
            # would repeat edge coordinates) and the index stays in it.
            cols = max(1, min(msg.cols, self.server.width))
            rows = max(1, min(msg.rows, self.server.height))
            index = min(msg.index, cols * rows - 1)
            tile = TileWall.grid(self.server.width, self.server.height,
                                 cols, rows)[index]
            session.viewport = (tile.width, tile.height)
            session.scaler = DisplayScaler(
                (self.server.width, self.server.height),
                (tile.width, tile.height), view_rect=tile)
            self.subscribe(session, tile=tile)
            session.queue_control(wire.TileAssignMessage(
                self.server.width, self.server.height, tile))
            session.queue_control(
                wire.ScreenInitMessage(tile.width, tile.height))
            self.server._submit_refresh(session, rect=tile)
        else:
            was_tile = self.is_tile(session)
            self.subscribe(session)
            if was_tile:
                # Leaving a tile: restore full-desktop geometry (the
                # session's viewport was carved down to its tile).
                session.viewport = (self.server.width, self.server.height)
                session.scaler = DisplayScaler(
                    (self.server.width, self.server.height),
                    session.viewport)
                session.queue_control(
                    wire.ScreenInitMessage(*session.viewport))
            self.server._submit_refresh(session)

    def adopt(self, session, tile_mode: bool = False) -> None:
        """Re-enroll a thawed subscriber without touching its stream.

        The thaw contract forbids injecting refreshes (the restored
        queue and journal already describe what the client is missing),
        so this only rebuilds plane membership; a tile subscriber's
        rectangle is its scaler's view, which migrated with it.
        """
        self.subscribe(session,
                       tile=session.scaler.view if tile_mode else None)

    # -- the fan-out path ----------------------------------------------------

    def route(self, command, sessions) -> List:
        """The dispatch path's *route* stage: who receives *command*.

        Everyone, except tile subscribers whose rectangle misses the
        command's destination.  With no subscribers this is *sessions*
        itself.
        """
        subs = self._subs
        if not subs:
            return sessions
        dest = command.dest
        return [s for s in sessions
                if (sub := subs.get(s)) is None or sub.tile is None
                or not sub.tile.intersect(dest).empty]

    def relay(self, variant, session) -> bool:
        """The dispatch path's *sink* stage for subscribers: queue a
        pinned reference to *variant*'s prepared entry on *session*'s
        relay.  False for a direct session, which the prepare plane
        then feeds itself — from the same posture-class variant, so a
        direct session and a same-class subscriber share one entry."""
        sub = self._subs.get(session)
        if sub is None:
            return False
        self._push(sub, variant)
        return True

    def _push(self, sub: _Subscriber, variant) -> None:
        plane = self.server.plane
        key, entry = plane.prepare_entry(variant, sub.session, pin=True)
        if not entry:
            plane.unpin(key)
            return  # clipped to nothing for this viewport
        size = sum(p.command.wire_size() for p in entry)
        sub.queue.append((key, entry, size))
        sub.queued_bytes += size
        self._drain(sub)
        if sub.queued_bytes > self.config.relay_bytes:
            self._overflow(sub)

    def _drain(self, sub: _Subscriber, force: bool = False) -> None:
        """Move relay entries into the subscriber's buffer stage.

        Pauses (leaving entries pinned) while the session's own buffer
        backlog is past the configured bound — deepening a slow
        subscriber's buffer would only feed the governor's ladder with
        work the relay could still coalesce away.  ``force`` ignores
        the bound; the freeze path uses it so no pixels are lost at
        migration time.
        """
        session = sub.session
        plane = self.server.plane
        cfg = self.config
        while sub.queue:
            if not force and session.buffer.pending_bytes() \
                    > cfg.subscriber_backlog_bytes:
                self.stats["relay_held"] += 1
                if not sub.drain_scheduled:
                    sub.drain_scheduled = True
                    self.server.loop.schedule(
                        cfg.drain_interval,
                        lambda s=sub: self._drain_tick(s))
                return
            key, entry, size = sub.queue.popleft()
            sub.queued_bytes -= size
            for prepared in entry:
                session.enqueue_prepared(prepared.command.translated(0, 0),
                                         prepared.ready_at)
            plane.unpin(key)
            self.stats["commands_relayed"] += 1
        sanitizer.check_prepare_pins(plane)

    def _drain_tick(self, sub: _Subscriber) -> None:
        sub.drain_scheduled = False
        if sub.session in self._subs:
            self._drain(sub)

    def flush(self, session) -> None:
        """Force-drain *session*'s relay queue (freeze/migration)."""
        sub = self._subs.get(session)
        if sub is not None:
            self._drain(sub, force=True)

    # -- the slow-subscriber ladder ------------------------------------------

    def _clear_relay(self, sub: _Subscriber) -> None:
        plane = self.server.plane
        while sub.queue:
            key, _, _ = sub.queue.popleft()
            plane.unpin(key)
        sub.queued_bytes = 0
        sanitizer.check_prepare_pins(plane)

    def _overflow(self, sub: _Subscriber) -> None:
        now = self.server.loop.now
        if now - sub.last_rung_at < self.config.ladder_cooldown:
            sub.rung = min(sub.rung + 1, 3)
        else:
            sub.rung = 1
        sub.last_rung_at = now
        session = sub.session
        self._clear_relay(sub)
        if sub.rung == 1:
            # Coalesce-to-refresh: the relay backlog costs more than
            # repainting; the refresh is row-banded to fit a congested
            # pipe's flush budget.
            self.stats["coalesces"] += 1
            self.server._submit_refresh(session, chunk_rows=64)
        elif sub.rung == 2:
            # Drop-to-keyframe: the buffered queue goes too, replaced
            # by one monolithic keyframe.
            self.stats["keyframes"] += 1
            session.buffer.queue.clear()
            rect = sub.tile
            self.server._submit_refresh(session, rect=rect)
        else:
            # Evict through the governor so denial framing, budget
            # accounting and quarantine semantics stay in one place
            # (quarantine ends with detach_client -> unsubscribe).
            self.stats["evictions"] += 1
            self.server.governor.quarantine(
                session, wire.DENY_SESSION_BUDGET, evicted=True)

    # -- diagnostics ---------------------------------------------------------

    def relay_depth(self, session) -> int:
        sub = self._subs.get(session)
        return len(sub.queue) if sub is not None else 0

    def relay_bytes(self, session) -> int:
        sub = self._subs.get(session)
        return sub.queued_bytes if sub is not None else 0
