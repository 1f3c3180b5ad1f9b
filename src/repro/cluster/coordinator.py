"""The shard coordinator: placement, routing, live migration.

A :class:`ShardCoordinator` owns N :class:`~repro.core.server.
THINCServer` shards on one shared simulation clock.  Each shard is a
complete THINC server — its own driver, prepare plane, governor and
resilience plane — with one fabric coupling: a disjoint token
namespace (shard *i* issues tokens ``i+1, i+1+N, ...``, so a token
names its minting shard and never collides).

Placement is consistent hashing with admission overflow: a fresh dial
walks the ring's preference order and lands on the first shard whose
governor would admit it (:meth:`place`); a full fabric yields None and
the relay answers with the standard typed denial.  Routing for
established sessions is token-based: the shard holding a unit under
the token, overridden by the explicit ``routes`` map once a migration
has moved the token away from its minting shard.

**Live migration** (:meth:`migrate`) is freeze → transfer → thaw →
resync, built entirely from parts that already exist: the relay severs
the client's splice (so recovery is the resilience plane's ordinary
detach/redial path, bounded by the same detach window), the session
freezes to its :class:`~repro.core.session_unit.FrozenSession`
surface, crosses the fabric inside a real ``SESSION_TRANSFER`` wire
frame (encoded and re-parsed — the codec is on the hot path, not
decoration), thaws on the target via ``thaw_session`` — only then does
the source let go of it — and the client's redial replays or snapshots
exactly as it would after a network fault.  Control-plane messages
(MIGRATE_BEGIN/COMPLETE, SHARD_ADMISSION) take the same honest
round-trip through the codec into :attr:`fabric_log`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from ..core.governor import AdmissionDenied
from ..core.resilience import ResilienceConfig
from ..core.server import THINCServer
from ..core.session_unit import FrozenSession, SessionUnit
from ..net.link import LinkParams
from ..protocol import wire
from ..protocol.limits import LIMITS
from ..protocol.spec import FABRIC_ACCEPTS
from .hashring import HashRing
from .relay import FABRIC_LAN, Relay

__all__ = ["ShardCoordinator"]


class ShardCoordinator:
    """Owner of the shard fleet, the ring, the routes and the relay."""

    def __init__(self, loop, num_shards: int, width: int, height: int,
                 resilience: Optional[ResilienceConfig] = None,
                 fabric_link: LinkParams = FABRIC_LAN,
                 **server_kw):
        if num_shards <= 0:
            raise ValueError("need at least one shard")
        self.loop = loop
        base = resilience or ResilienceConfig()
        self.shards: List[THINCServer] = []
        for i in range(num_shards):
            cfg = replace(base, token_start=i + 1, token_stride=num_shards)
            self.shards.append(THINCServer(loop, width, height,
                                           resilience=cfg, **server_kw))
        self.ring = HashRing(range(num_shards))
        #: Explicit token routes, needed once a migration moves a token
        #: off its minting shard; a scan of the shards' sessions is the
        #: fallback for everything else.
        self.routes: Dict[int, int] = {}
        self.relay = Relay(self, fabric_link=fabric_link)
        #: Decoded control-plane traffic, in send order (every entry
        #: has been through encode_message + the fabric parser).
        self.fabric_log: List[object] = []
        #: The fabric's receive parser: like every other link in the
        #: system, shard-to-shard traffic parses under a spec-derived
        #: allowed-id set (THL201) — a display or control frame that
        #: strays onto the fabric dies at the frame header.
        self._fabric_parser = wire.StreamParser(
            max_frame=LIMITS.max_frame_bytes, allowed=FABRIC_ACCEPTS)
        self.migrations: List[Dict[str, float]] = []
        self.transfer_bytes = 0

    # -- fabric wire plumbing ------------------------------------------------

    def _fabric_send(self, msg):
        """Round-trip a fabric message through the real codec.

        The simulation keeps shards in one process, so the "network"
        here is the encoder and parser themselves: every control
        message and every session transfer must survive its own wire
        format — under the fabric's allowed-id set — which is what
        keeps the spec honest.
        """
        framed = wire.encode_message(msg)
        self.transfer_bytes += len(framed)
        (decoded,) = self._fabric_parser.feed(framed)
        self.fabric_log.append(decoded)
        return decoded

    # -- placement and routing -----------------------------------------------

    @property
    def retry_after(self) -> float:
        return self.shards[0].governor.server_budget.retry_after

    def place(self, key: str) -> Optional[int]:
        """Shard for a fresh attach: ring order with admission overflow.

        Walks the consistent-hash preference order for *key* and
        returns the first shard whose governor would admit a session;
        None when the whole fabric is refusing (the relay then sends
        the standard typed denial).
        """
        for shard in self.ring.preference(str(key)):
            if self.shards[shard].governor.check_admission() is None:
                return shard
        return None

    def route_token(self, token: int) -> Optional[int]:
        """Shard currently owning *token*, or None if nobody does."""
        shard = self.routes.get(token)
        if shard is not None:
            return shard
        return next((i for i, server in enumerate(self.shards)
                     if server.resilience.find(token) is not None), None)

    def note_route(self, token: int, shard: int) -> None:
        self.routes[token] = shard

    # -- live migration ------------------------------------------------------

    def migrate(self, token: int, target: int) -> SessionUnit:
        """Move session *token* to shard *target*, live.

        Freeze → transfer (through the real SESSION_TRANSFER wire
        format) → thaw → detach from the source; the client is severed
        at the relay and recovers through the ordinary resilience
        redial, which the updated routing table now sends to *target*.
        Returns the thawed successor unit.  A target whose governor
        would refuse a fresh attach refuses the move too: :class:`~repro.
        core.governor.AdmissionDenied` is raised before anything is
        sent, severed or rerouted.  A transfer that fails to encode,
        decode or thaw re-raises its typed :class:`~repro.protocol.wire.
        ProtocolError` with the frozen session still on its source and
        the routes unchanged, so the redial resyncs it there.
        """
        if not 0 <= target < len(self.shards):
            raise ValueError(f"no such shard: {target}")
        source = self.route_token(token)
        if source is None:
            raise KeyError(f"unknown session token {token}")
        if source == target:
            raise ValueError(f"token {token} is already on shard {target}")
        src_server = self.shards[source]
        session = src_server.resilience.find(token)
        if session is None:
            raise KeyError(f"token {token} has no session on shard {source}")
        governor = self.shards[target].governor
        reason = governor.check_admission()
        if reason is not None:
            raise AdmissionDenied(reason, governor.server_budget.retry_after)
        began = self.loop.now
        self._fabric_send(wire.MigrateBeginMessage(token, target))
        # Cut the client's path first so no uplink byte lands mid-freeze;
        # from here the clock on the client's bounded absence is running.
        self.relay.sever(token)
        frozen = session.freeze()
        transfer = self._fabric_send(
            wire.SessionTransferMessage(token, frozen.to_bytes()))
        successor = self.shards[target].thaw_session(
            FrozenSession.from_bytes(transfer.state))
        src_server.detach_client(session)
        self.routes[token] = target
        self._fabric_send(wire.MigrateCompleteMessage(token, target))
        self.migrations.append({"token": token, "source": source,
                                "target": target, "at": began})
        return successor

    # -- admission reporting -------------------------------------------------

    def admission_reports(self) -> List[wire.ShardAdmissionReportMessage]:
        """Every shard's governor posture, as decoded fabric messages.

        This is the upward half of the governance plane: the
        coordinator's placement overflow consumes exactly what these
        reports carry (session count, buffered bytes, admitting bit).
        """
        reports = []
        for i, server in enumerate(self.shards):
            queue_bytes = sum(s.buffer.pending_bytes()
                              for s in server.sessions)
            reports.append(self._fabric_send(
                wire.ShardAdmissionReportMessage(
                    shard=i, sessions=len(server.sessions),
                    queue_bytes=queue_bytes,
                    admitting=server.governor.check_admission() is None)))
        return reports

    # -- diagnostics ---------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Fabric-wide headline counters plus per-shard summaries."""
        per_shard = [dict(server.stats) for server in self.shards]
        return {
            "shards": len(self.shards),
            "sessions": sum(len(s.sessions) for s in self.shards),
            "migrations": len(self.migrations),
            "transfer_bytes": self.transfer_bytes,
            "routes": len(self.routes),
            "prepare_cache_hits": sum(
                s["prepare_cache_hits"] for s in per_shard),
            "prepare_cache_misses": sum(
                s["prepare_cache_misses"] for s in per_shard),
            "relay": dict(self.relay.stats),
            "per_shard": per_shard,
        }
