"""Discrete-event network simulation: clock, links, transport, faults."""

from .clock import EventLoop, SimClock
from .faults import (Corruption, Disconnect, FaultPlan, FaultyConnection,
                     FaultyEndpoint, LossBurst, Partition, Stall,
                     dial_factory)
from .link import (LAN_DESKTOP, MSS, NETWORK_CONFIGS, PDA_80211G,
                   WAN_DESKTOP, LinkParams)
from .monitor import PacketMonitor, PacketRecord
from .transport import Connection, Endpoint

__all__ = [
    "SimClock",
    "EventLoop",
    "LinkParams",
    "LAN_DESKTOP",
    "WAN_DESKTOP",
    "PDA_80211G",
    "NETWORK_CONFIGS",
    "MSS",
    "Connection",
    "Endpoint",
    "PacketMonitor",
    "PacketRecord",
    "FaultPlan",
    "LossBurst",
    "Stall",
    "Partition",
    "Disconnect",
    "Corruption",
    "FaultyEndpoint",
    "FaultyConnection",
    "dial_factory",
]
