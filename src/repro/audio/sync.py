"""A/V synchronisation and playback-quality analysis.

THINC timestamps audio and video at the server so the client can
deliver them with the server's synchronisation (Section 4.2).  These
helpers turn a client's arrival records into the quality measures the
paper's slow-motion A/V benchmark reports: a stream plays at 100%
quality when every unit arrived in time to be presented on its ideal
schedule; data that is dropped, or that stretches playback beyond
real-time, reduces quality proportionally.
"""

from __future__ import annotations

from typing import Sequence, Tuple

__all__ = ["audio_quality", "av_sync_skew", "playback_quality"]

#: Seconds of audio the client buffers before it starts playback.
START_OFFSET = 0.25


def playback_quality(units_received: int, units_total: int,
                     ideal_duration: float, actual_duration: float) -> float:
    """The slow-motion quality measure (Section 8.2).

    100% means every unit played at real-time speed.  Dropped units and
    stretched playback both degrade the score: e.g. half the data
    dropped, or all data in twice the time, each give 50%.
    """
    if units_total <= 0 or ideal_duration <= 0:
        raise ValueError("totals must be positive")
    delivered = min(1.0, units_received / units_total)
    if units_received == 0:
        return 0.0
    slowdown = max(actual_duration, 1e-12) / ideal_duration
    speed = min(1.0, 1.0 / slowdown) if slowdown > 1.0 else 1.0
    return delivered * speed


def audio_quality(arrivals: Sequence[Tuple[float, float]],
                  chunks_total: int, ideal_duration: float) -> float:
    """Audio quality from (server timestamp, arrival time) pairs.

    The client buffers ``START_OFFSET`` seconds before starting
    playback; a chunk is on time when it arrives before its scheduled
    play-out instant.  Quality is the on-time fraction scaled by
    delivery completeness.
    """
    if chunks_total <= 0:
        raise ValueError("chunks_total must be positive")
    if not arrivals:
        return 0.0
    base_ts, base_arrival = arrivals[0]
    deadline_origin = base_arrival + START_OFFSET
    on_time = 0
    for ts, arrival in arrivals:
        deadline = deadline_origin + (ts - base_ts)
        if arrival <= deadline + 1e-9:
            on_time += 1
    return (on_time / chunks_total)


def av_sync_skew(audio_arrivals: Sequence[Tuple[float, float]],
                 video_arrivals: Sequence[Tuple[float, float]]) -> float:
    """Mean |audio - video| delivery-delay difference, in seconds.

    Both sequences hold (server timestamp, client arrival) pairs; the
    skew compares the two streams' average network delays — with
    server-side timestamping the client can absorb any *common* delay,
    so only the difference degrades lip sync.
    """
    if not audio_arrivals or not video_arrivals:
        return 0.0

    def mean_delay(pairs):
        return sum(arr - ts for ts, arr in pairs) / len(pairs)

    return abs(mean_delay(audio_arrivals) - mean_delay(video_arrivals))
