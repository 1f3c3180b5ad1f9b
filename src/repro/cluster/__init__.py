"""Sharded server fabric: placement, relay routing, live migration.

One THINC server scales to one machine; this package scales the
*deployment* without touching the client: a :class:`ShardCoordinator`
owns N independent shards behind a :class:`Relay` that speaks the
ordinary wire protocol, places sessions by consistent hashing with
admission overflow, and migrates live sessions between them by
freezing their serializable surface (:mod:`repro.core.session_unit`)
and shipping it across the fabric in a ``SESSION_TRANSFER`` frame.
Recovery from a migration is the resilience plane's existing
detach/reconnect machinery — clients cannot tell a migration from a
network blip.
"""

from .coordinator import ShardCoordinator
from .hashring import HashRing
from .relay import FABRIC_LAN, Relay

__all__ = [
    "HashRing",
    "ShardCoordinator",
    "Relay",
    "FABRIC_LAN",
]
