"""Content-adaptive, link-aware encoder selection for RAW blocks.

The paper compresses every RAW payload the same way (PNG-model);
this policy instead picks **per command** from the encoding ladder of
:class:`~repro.codec.encodings.Encoding`, driven by two inputs:

* the block's :func:`~repro.codec.classify.classify` statistics
  (solid / flat / photographic), and
* the link *posture* — :class:`LinkPosture`, derived from the
  governor's degraded flag, the session's send backlog, and the
  measured downlink throughput (from the packet-trace monitor)
  relative to the link's capacity.

The ladder::

    solid block               -> demote to SFILL (any posture)
    flat block                -> RLE    (skips DEFLATE entirely)
    anything else, PLENTIFUL  -> NONE   (idle LAN: bandwidth is free,
                                         server CPU is the scarce
                                         resource, so send raw rows)
    anything else, LOSSLESS   -> PNG    (lossless floor)
    anything else, DEGRADED   -> LOSSY  (4:2:0 + quantise; a later
                                         lossless refresh restores
                                         exact pixels)

Wire-vs-CPU tradeoffs are posture decisions, not content decisions:
RLE on flat chrome costs a few hundred bytes more than DEFLATE would,
but skips the entire zlib pass — the ladder keeps it in every posture
because flat blocks are a tiny fraction of wire bytes and a large
fraction of prepare CPU.

The policy knows nothing of wire formats or sessions: callers hand it
pixel arrays and throughput numbers and get back an Encoding value (and
possibly a solid colour to demote with).  The protocol/pipeline layers
above own the actual command surgery.
"""

from __future__ import annotations

from enum import IntEnum
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .classify import ContentStats, classify
from .encodings import Encoding

__all__ = ["LinkPosture", "EncodingChoice", "EncoderPolicy"]


class LinkPosture(IntEnum):
    """What the downlink can afford right now.

    ``LOSSLESS`` is the conservative default (compress well, stay
    exact).  ``DEGRADED`` means the link is the bottleneck — spend
    fidelity to shed bytes.  ``PLENTIFUL`` means an idle LAN-class
    link — spend bytes to shed server CPU.
    """

    LOSSLESS = 0
    DEGRADED = 1
    PLENTIFUL = 2


class EncodingChoice(NamedTuple):
    """One selection: the encoding, plus the demotion colour when the
    block turned out to be solid (callers then send SFILL instead)."""

    encoding: Encoding
    solid_color: Optional[Tuple[int, int, int, int]] = None


class EncoderPolicy:
    """Selects a RAW encoding per block from content + link budget.

    ``saturation`` is the fraction of link capacity at which the
    measured throughput flips the posture to degraded;
    ``backlog_horizon`` is the seconds of queued-but-unsent downlink
    drain that mean the same thing (a link can be the bottleneck long
    before its *measured* rate says so — the queue in front of it is
    the proof); ``plentiful_headroom`` and ``lan_floor_bps`` gate the
    opposite flip: a link at LAN capacity with almost nothing in flight
    can take raw pixels.  ``min_lossy_pixels`` keeps tiny blocks
    lossless (their absolute cost is noise and their artefacts are
    disproportionate).
    """

    saturation = 0.85
    min_lossy_pixels = 1024
    backlog_horizon = 0.1
    plentiful_headroom = 0.25
    lan_floor_bps = 50e6

    def __init__(self):
        # Selection tally by Encoding value (plus "sfill" demotions),
        # read off ``server.encoder_policy``.
        self.counts = {enc: 0 for enc in Encoding}
        self.demotions = 0

    # -- link posture -----------------------------------------------------

    def link_saturated(self, measured_bps: Optional[float],
                       capacity_bps: Optional[float]) -> bool:
        """Is the measured downlink rate close enough to capacity that
        the ladder should shift toward cheaper/lossy encodings?"""
        if not measured_bps or not capacity_bps:
            return False
        return measured_bps >= self.saturation * capacity_bps

    def posture_for(self, measured_bps: Optional[float],
                    capacity_bps: Optional[float],
                    backlog_bytes: int = 0) -> LinkPosture:
        """Posture of one downlink from capacity, measured rate and the
        bytes already queued in front of it."""
        if capacity_bps:
            if backlog_bytes * 8.0 > self.backlog_horizon * capacity_bps:
                return LinkPosture.DEGRADED
        if self.link_saturated(measured_bps, capacity_bps):
            return LinkPosture.DEGRADED
        if (capacity_bps and capacity_bps >= self.lan_floor_bps
                and (measured_bps or 0.0)
                <= self.plentiful_headroom * capacity_bps
                and backlog_bytes * 8.0
                <= self.plentiful_headroom * capacity_bps
                * self.backlog_horizon):
            return LinkPosture.PLENTIFUL
        return LinkPosture.LOSSLESS

    # -- selection --------------------------------------------------------

    def select(self, pixels: np.ndarray,
               posture: LinkPosture = LinkPosture.LOSSLESS,
               stats: Optional[ContentStats] = None) -> EncodingChoice:
        """Pick an encoding for one RGBA block under *posture*."""
        if stats is None:
            stats = classify(pixels)
        if stats.solid_color is not None:
            self.demotions += 1
            return EncodingChoice(Encoding.NONE, stats.solid_color)
        pixel_count = pixels.shape[0] * pixels.shape[1]
        if stats.flat:
            choice = Encoding.RLE
        elif posture is LinkPosture.PLENTIFUL \
                and pixel_count >= self.min_lossy_pixels:
            choice = Encoding.NONE
        elif posture is LinkPosture.DEGRADED \
                and pixel_count >= self.min_lossy_pixels:
            choice = Encoding.LOSSY
        else:
            choice = Encoding.PNG
        self.counts[choice] += 1
        return EncodingChoice(choice)
