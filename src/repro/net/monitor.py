"""Packet monitor for slow-motion benchmarking.

The paper measures the closed commercial systems non-invasively, by
capturing network traffic and reading latencies and data volumes out of
the trace (Section 8.2, citing the slow-motion benchmarking
methodology).  This monitor plays the Ethereal role: every delivered
segment is recorded with its timestamp and direction, and the analysis
helpers extract the same measures the paper reports.

Records arrive in time order (the transport stamps them with the
monotone loop clock), so the analysis helpers answer windowed queries
from per-direction bisect indexes with byte-prefix sums instead of
rescanning the whole trace: the server's link probe
(``repro.core.link_health``, the one rate reader) polls the downlink
rate every interval without going quadratic in trace length.  Should
a caller ever record out of order, every query falls back to the
original full-trace scan, so results are identical either way.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["PacketRecord", "PacketMonitor"]


@dataclass(frozen=True)
class PacketRecord:
    time: float
    direction: str  # "server->client" or "client->server"
    size: int


class _DirectionIndex:
    """Sorted timestamps plus a byte-prefix-sum for one direction."""

    __slots__ = ("times", "prefix")

    def __init__(self) -> None:
        self.times: List[float] = []
        # prefix[k] == bytes of the first k records; prefix[0] == 0.
        self.prefix: List[int] = [0]

    def add(self, time: float, size: int) -> None:
        self.times.append(time)
        self.prefix.append(self.prefix[-1] + size)

    def total(self, start: float, end: float) -> int:
        lo = bisect_left(self.times, start)
        hi = bisect_right(self.times, end)
        if hi <= lo:  # empty (or inverted) window
            return 0
        return self.prefix[hi] - self.prefix[lo]

    def first(self, after: float) -> Optional[float]:
        i = bisect_left(self.times, after)
        return self.times[i] if i < len(self.times) else None

    def last(self, before: float) -> Optional[float]:
        i = bisect_right(self.times, before) - 1
        return self.times[i] if i >= 0 else None


class PacketMonitor:
    """Records every segment crossing the emulated network."""

    def __init__(self) -> None:
        self.records: List[PacketRecord] = []
        self.marks: List[Tuple[float, str]] = []
        self._all = _DirectionIndex()
        self._by_dir: Dict[str, _DirectionIndex] = {}
        self._monotone = True
        self._last_time = float("-inf")

    def record(self, time: float, direction: str, size: int) -> None:
        """Log one delivered segment (called by the transport)."""
        self.records.append(PacketRecord(time, direction, size))
        if time < self._last_time:
            self._monotone = False
        else:
            self._last_time = time
        self._all.add(time, size)
        idx = self._by_dir.get(direction)
        if idx is None:
            idx = self._by_dir[direction] = _DirectionIndex()
        idx.add(time, size)

    def mark(self, time: float, label: str) -> None:
        """Drop an analysis marker (e.g. page-load click) into the trace."""
        self.marks.append((time, label))

    def clear(self) -> None:
        """Drop all records and marks (between benchmark phases)."""
        self.records = []
        self.marks = []
        self._all = _DirectionIndex()
        self._by_dir = {}
        self._monotone = True
        self._last_time = float("-inf")

    def _index(self, direction: Optional[str]) -> _DirectionIndex:
        if direction is None:
            return self._all
        idx = self._by_dir.get(direction)
        if idx is None:
            idx = self._by_dir[direction] = _DirectionIndex()
        return idx

    # -- analysis -----------------------------------------------------------

    def total_bytes(self, direction: Optional[str] = None,
                    start: float = float("-inf"),
                    end: float = float("inf")) -> int:
        if not self._monotone:
            return sum(r.size for r in self.records
                       if (direction is None or r.direction == direction)
                       and start <= r.time <= end)
        return self._index(direction).total(start, end)

    def first_packet_time(self, direction: Optional[str] = None,
                          after: float = float("-inf")) -> Optional[float]:
        if not self._monotone:
            for r in self.records:
                if (direction is None or r.direction == direction) \
                        and r.time >= after:
                    return r.time
            return None
        return self._index(direction).first(after)

    def last_packet_time(self, direction: Optional[str] = None,
                         before: float = float("inf")) -> Optional[float]:
        if not self._monotone:
            result = None
            for r in self.records:
                if (direction is None or r.direction == direction) \
                        and r.time <= before:
                    result = r.time
            return result
        return self._index(direction).last(before)

    def span_latency(self, start: float, end: float = float("inf"),
                     direction: str = "server->client") -> Optional[float]:
        """Slow-motion page latency: from an input mark to the last
        data packet of the response burst."""
        last = self.last_packet_time(direction, before=end)
        if last is None or last < start:
            return None
        return last - start

    def rate(self, direction: Optional[str] = None, window: float = 0.25,
             now: float = 0.0) -> float:
        """Bits per second delivered over the trailing *window* ending
        at *now* (inclusive on both ends, like :meth:`total_bytes`)."""
        if window <= 0:
            raise ValueError("window must be positive")
        return self.total_bytes(direction, start=now - window,
                                end=now) * 8.0 / window

    def __len__(self) -> int:
        return len(self.records)
