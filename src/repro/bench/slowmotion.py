"""Slow-motion benchmarking measures (paper Section 8.2).

The paper measures the closed systems non-invasively: network traffic
is captured, workload events are spaced far enough apart that each
page/burst is separable in the trace, and the measures below are read
out of it.  For the instrumented clients, modelled client processing
time is added to the network-derived latency (the cross-hatched bars
of Figure 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..audio.sync import audio_quality, playback_quality
from ..net.monitor import PacketMonitor

__all__ = ["PageMeasurement", "WebRunResult", "AVRunResult",
           "measure_page"]


@dataclass
class PageMeasurement:
    """One page load, read from the packet trace."""

    index: int
    click_time: float
    latency: float  # click -> last server->client packet
    latency_with_processing: float
    bytes_transferred: int


@dataclass
class WebRunResult:
    """One platform x network web benchmark run."""

    platform: str
    network: str
    pages: List[PageMeasurement] = field(default_factory=list)

    @property
    def mean_latency(self) -> float:
        return sum(p.latency for p in self.pages) / len(self.pages)

    @property
    def mean_latency_with_processing(self) -> float:
        return (sum(p.latency_with_processing for p in self.pages)
                / len(self.pages))

    @property
    def mean_page_bytes(self) -> float:
        return (sum(p.bytes_transferred for p in self.pages)
                / len(self.pages))

    @property
    def total_bytes(self) -> int:
        return sum(p.bytes_transferred for p in self.pages)


@dataclass
class AVRunResult:
    """One platform x network A/V benchmark run."""

    platform: str
    network: str
    frames_sent: int
    frames_received: int
    ideal_duration: float
    actual_duration: float
    bytes_transferred: int
    audio_supported: bool
    audio_quality: float
    full_duration_scale: float = 1.0  # truncated-run extrapolation
    # Mean |audio - video| delivery-delay difference (lip sync), or
    # None when the platform exposes no per-frame timing.
    av_sync_skew_s: Optional[float] = None

    @property
    def av_quality(self) -> float:
        """The combined slow-motion A/V quality measure.

        Video data dominates the combined streams (Section 8.2), so the
        video delivery/stretch product is the headline number; audio
        lateness degrades it only fractionally for audio platforms.
        """
        video = playback_quality(self.frames_received, self.frames_sent,
                                 self.ideal_duration, self.actual_duration)
        if not self.audio_supported:
            return video
        return video * (0.9 + 0.1 * self.audio_quality)

    @property
    def bandwidth_mbps(self) -> float:
        if self.actual_duration <= 0:
            return 0.0
        return self.bytes_transferred * 8 / self.actual_duration / 1e6

    @property
    def total_bytes_full_clip(self) -> float:
        """Bytes extrapolated to the paper's full 34.75 s clip."""
        return self.bytes_transferred * self.full_duration_scale


def measure_page(monitor: PacketMonitor, index: int, click_time: float,
                 end_time: float, processing_time_delta: float
                 ) -> PageMeasurement:
    """Extract one page's slow-motion measures from the trace window."""
    last = monitor.last_packet_time("server->client", before=end_time)
    if last is None or last < click_time:
        latency = 0.0
    else:
        latency = last - click_time
    nbytes = monitor.total_bytes(start=click_time, end=end_time)
    return PageMeasurement(
        index=index,
        click_time=click_time,
        latency=latency,
        latency_with_processing=latency + processing_time_delta,
        bytes_transferred=nbytes,
    )
