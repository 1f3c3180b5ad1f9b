"""The relay edge: one dial target in front of many shards.

Clients speak the *unchanged* THINC wire protocol to the relay — same
prelude, same CHECKED framing, same RC4 — and never learn the fabric
exists.  The relay reads exactly one plaintext frame off a fresh dial
(the reconnect request) with the resilience plane's own
:func:`~repro.core.resilience.read_prelude`, asks the coordinator which shard owns the
token (or places a fresh attach), dials a backhaul to that shard, hands
the backhaul to the shard's resilience plane, and from then on is a
pair of bounded byte pumps: client→shard and shard→client.  On the way
back it peeks exactly one frame (the accept/denied answer) to learn the
token the shard assigned, then goes fully opaque — later bytes may be
encrypted under a key the relay never sees, so it *must not* parse
them.

Migration uses :meth:`Relay.sever`: cutting both legs of a token's
splice makes the client's liveness detector fire and redial, and the
coordinator's updated routing table sends the redial to the session's
new home — the relay re-uses the resilience plane's detach/reconnect
machinery instead of inventing a second recovery path, so the
migration outage is bounded by the same detach-window budget as any
network fault.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict

from ..core.resilience import read_prelude, write_prelude
from ..net.link import LinkParams
from ..net.transport import Connection
from ..protocol import wire

__all__ = ["Relay", "FABRIC_LAN"]

#: Default shard-backhaul path: a datacenter hop, far faster than any
#: client access link so the relay tier never becomes the bottleneck.
FABRIC_LAN = LinkParams("shard fabric", bandwidth_bps=1e9, rtt=0.0001)

#: Retry cadence for a pump blocked on a full destination window.
_PUMP_RETRY = 0.001

#: Bytes a splice pump may hold back before it declares overflow.
BUFFER_LIMIT = 1 << 20


class _Pump:
    """A bounded one-direction byte pump into a transport endpoint.

    Respects the destination's ``writable_bytes`` window (splitting
    chunks arbitrarily — this is a byte stream, not a frame relay) and
    retries on a timer while backlogged.  A backlog past *limit* means
    the destination stopped draining for good; the pump declares
    overflow and the splice is severed rather than buffering without
    bound — the client then recovers through the normal redial path.
    """

    def __init__(self, loop, dst, limit: int,
                 on_overflow: Callable[[], None]):
        self.loop = loop
        self.dst = dst
        self.limit = limit
        self.on_overflow = on_overflow
        self.buf: Deque[bytes] = deque()
        self.buffered = 0
        self.moved = 0
        self.closed = False
        self._scheduled = False

    def push(self, chunk: bytes) -> None:
        if self.closed or not chunk:
            return
        self.buf.append(chunk)
        self.buffered += len(chunk)
        if self.buffered > self.limit:
            self.close()
            self.on_overflow()
            return
        self._drain()

    def _drain(self) -> None:
        if self.closed:
            return
        while self.buf:
            room = self.dst.writable_bytes()
            if room <= 0:
                break
            head = self.buf.popleft()
            if len(head) > room:
                self.dst.write(head[:room])
                self.buf.appendleft(head[room:])
                self.buffered -= room
                self.moved += room
                break
            self.dst.write(head)
            self.buffered -= len(head)
            self.moved += len(head)
        if self.buf and not self._scheduled:
            self._scheduled = True
            self.loop.schedule(_PUMP_RETRY, self._tick)

    def _tick(self) -> None:
        self._scheduled = False
        self._drain()

    def close(self) -> None:
        self.closed = True
        self.buf.clear()
        self.buffered = 0


class _Splice:
    """One client↔shard byte path through the relay."""

    def __init__(self, relay: "Relay", client_conn: Connection,
                 backhaul: Connection, shard: int):
        self.relay = relay
        self.client_conn = client_conn
        self.backhaul = backhaul
        self.shard = shard
        self.token = 0  # learned from the shard's accept answer
        self.up = _Pump(relay.loop, backhaul.up, BUFFER_LIMIT,
                        self._overflow)
        self.down = _Pump(relay.loop, client_conn.down, BUFFER_LIMIT,
                          self._overflow)
        client_conn.up.connect(self._on_client_bytes)
        # Peek exactly one plaintext frame — the shard's answer — to
        # learn the session token; everything after it may be
        # encrypted, so the relay never parses past this point.
        read_prelude(backhaul.down, self._on_answer, self.close)

    def _overflow(self) -> None:
        self.relay.stats["overflows"] += 1
        self.close()

    def _on_client_bytes(self, chunk: bytes) -> None:
        self.up.push(chunk)
        self.relay.stats["bytes_up"] += len(chunk)

    def _on_answer(self, msg, frame: bytes, rest: bytes) -> None:
        if isinstance(msg, wire.ReconnectAcceptMessage):
            self.token = msg.token
            self.relay.register(self)
        self.backhaul.down.connect(self._on_shard_bytes)
        self._on_shard_bytes(frame + rest)

    def _on_shard_bytes(self, chunk: bytes) -> None:
        self.relay.stats["bytes_down"] += len(chunk)
        self.down.push(chunk)

    def close(self) -> None:
        self.up.close()
        self.down.close()
        self.client_conn.up.disconnect()
        self.backhaul.down.disconnect()
        self.client_conn.close()
        self.backhaul.close()


class Relay:
    """The dial target clients use; routes each dial to its shard.

    ``accept`` is signature-compatible with
    ``ResiliencePlane.accept`` — a resilient client (or
    :func:`repro.net.faults.dial_factory`) pointed at a relay cannot
    tell it apart from a single server.
    """

    def __init__(self, coordinator, fabric_link: LinkParams = FABRIC_LAN):
        self.coordinator = coordinator
        self.loop = coordinator.loop
        self.fabric_link = fabric_link
        self._dials = 0
        #: token -> live splice, for migration severing.
        self.splices: Dict[int, _Splice] = {}
        self.stats = {"accepts": 0, "denied": 0, "severed": 0,
                      "routed_fresh": 0, "routed_resumed": 0,
                      "overflows": 0, "bytes_up": 0, "bytes_down": 0}

    # -- the dial path -------------------------------------------------------

    def accept(self, connection: Connection, viewport=None) -> None:
        """Take ownership of a freshly dialled client connection."""
        self._dials += 1
        self.stats["accepts"] += 1
        dial_no = self._dials

        def on_frame(msg, frame: bytes, rest: bytes) -> None:
            if isinstance(msg, wire.ReconnectRequestMessage):
                self._route(connection, viewport, dial_no, msg, frame + rest)

        read_prelude(connection.up, on_frame, lambda: None)

    def _route(self, connection: Connection, viewport, dial_no: int,
               req: wire.ReconnectRequestMessage, prelude: bytes) -> None:
        shard = self.coordinator.route_token(req.token) if req.token \
            else None
        if shard is not None:
            self.stats["routed_resumed"] += 1
        else:
            # Fresh attach — or a token no shard knows any more, which
            # the single-server plane also treats as a fresh attach.
            shard = self.coordinator.place(f"dial-{dial_no}")
            if shard is not None:
                self.stats["routed_fresh"] += 1
        if shard is None:
            # No admitting shard anywhere: push back with the same
            # typed denial a single overloaded server uses.
            self.stats["denied"] += 1
            write_prelude(connection.down, wire.ReconnectDeniedMessage(
                self.coordinator.retry_after))
            return
        backhaul = Connection(self.loop, self.fabric_link)
        server = self.coordinator.shards[shard]
        server.resilience.accept(backhaul, viewport)
        splice = _Splice(self, connection, backhaul, shard)
        # Replay the prelude (plus any bytes that rode the same
        # segment) into the shard exactly as received.
        splice.up.push(prelude)

    # -- routing bookkeeping -------------------------------------------------

    def register(self, splice: _Splice) -> None:
        """A shard accepted a session on *splice*; index it by token."""
        old = self.splices.get(splice.token)
        if old is not None and old is not splice:
            old.close()  # a stale path for the same session
        self.splices[splice.token] = splice
        self.coordinator.note_route(splice.token, splice.shard)

    def sever(self, token: int) -> None:
        """Cut a token's splice (both legs) — the migration trigger.

        The client's liveness detector fires, it backs off and redials;
        by then the coordinator routes the token to its new shard.
        """
        splice = self.splices.pop(token, None)
        if splice is not None:
            self.stats["severed"] += 1
            splice.close()
