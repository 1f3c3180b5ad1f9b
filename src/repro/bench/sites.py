"""Remote sites for the WAN experiments (paper Table 2).

The paper ran THINC clients on PlanetLab nodes and volunteer machines
around the world, with the server in New York.  We reproduce each site
as a link whose RTT derives from its great-circle distance (fibre
propagation at ~2/3 c, doubled for the round trip, times a routing
inflation factor, plus a fixed access overhead) and whose TCP window
matches the paper's constraint: PlanetLab nodes were capped at 256 KB;
elsewhere 1 MB windows were configured.  Korea's site is additionally
window-capped — the paper attributes its poor A/V quality not to the
link but to a TCP window it was not allowed to raise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..net.link import LinkParams

__all__ = ["RemoteSite", "REMOTE_SITES", "site_link"]

# Effective one-way propagation per km, including routing inflation
# (light in fibre is ~5 us/km; internet paths run ~1.6-2x longer).
_SECONDS_PER_KM_RTT = 1.7e-5
_ACCESS_OVERHEAD_RTT = 0.004
_MILES_TO_KM = 1.609344

PLANETLAB_WINDOW = 256 * 1024
DEFAULT_WINDOW = 1 << 20


@dataclass(frozen=True)
class RemoteSite:
    """One row of Table 2."""

    code: str
    location: str
    planetlab: bool
    distance_miles: int

    @property
    def rtt(self) -> float:
        km = self.distance_miles * _MILES_TO_KM
        return _ACCESS_OVERHEAD_RTT + km * _SECONDS_PER_KM_RTT

    @property
    def tcp_window(self) -> int:
        return PLANETLAB_WINDOW if self.planetlab else DEFAULT_WINDOW


# Table 2 of the paper, verbatim.
REMOTE_SITES: List[RemoteSite] = [
    RemoteSite("NY", "New York, NY, USA", True, 5),
    RemoteSite("PA", "Philadelphia, PA, USA", True, 78),
    RemoteSite("MA", "Cambridge, MA, USA", True, 188),
    RemoteSite("MN", "St. Paul, MN, USA", True, 1015),
    RemoteSite("NM", "Albuquerque, NM, USA", False, 1816),
    RemoteSite("CA", "Stanford, CA, USA", False, 2571),
    RemoteSite("CAN", "Waterloo, Canada", True, 388),
    RemoteSite("IE", "Maynooth, Ireland", False, 3185),
    RemoteSite("PR", "San Juan, Puerto Rico", False, 1603),
    RemoteSite("FI", "Helsinki, Finland", False, 4123),
    RemoteSite("KR", "Seoul, Korea", True, 6885),
]


def site_link(site: RemoteSite) -> LinkParams:
    """The 100 Mbit/s network path from the testbed server to *site*'s
    client."""
    return LinkParams(
        name=f"site-{site.code}",
        bandwidth_bps=100e6,
        rtt=site.rtt,
        tcp_window=site.tcp_window,
    )
