"""Packet monitor for slow-motion benchmarking.

The paper measures the closed commercial systems non-invasively, by
capturing network traffic and reading latencies and data volumes out of
the trace (Section 8.2, citing the slow-motion benchmarking
methodology).  This monitor plays the Ethereal role: every delivered
segment is recorded with its timestamp and direction, and the analysis
helpers extract the same measures the paper reports.

Records arrive in time order (the transport stamps them with the
monotone loop clock; ``record`` refuses one that goes back), so each
direction keeps timestamps and a byte-prefix sum, and the analysis
helpers answer windowed queries by bisection instead of rescanning the
trace: the server's link probe (``repro.core.link_health``) polls the
downlink rate every interval without going quadratic in trace length.
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

    def total(self, start: float, end: float) -> int:
        lo = bisect_left(self.times, start)
        hi = bisect_right(self.times, end)
        if hi <= lo:  # empty (or inverted) window
            return 0
        return self.prefix[hi] - self.prefix[lo]

    def last(self, before: float) -> Optional[float]:
        i = bisect_right(self.times, before) - 1
        return self.times[i] if i >= 0 else None


class PacketMonitor:
    """Records every segment crossing the emulated network."""

    def __init__(self) -> None:
        self.clear()

    def record(self, time: float, direction: str, size: int) -> None:
        """Log one delivered segment (called by the transport)."""
        if time < self._last_time:
            raise ValueError(f"packet time cannot move backwards "
                             f"({time} < {self._last_time})")
        self._last_time = time
        idx = self._by_dir.get(direction)
        if idx is None:
            idx = self._by_dir[direction] = _DirectionIndex()
        idx.times.append(time)
        idx.prefix.append(idx.prefix[-1] + size)
        self._order.append(direction)

    def mark(self, time: float, label: str) -> None:
        """Drop an analysis marker (e.g. page-load click) into the trace."""
        self.marks.append((time, label))

    def clear(self) -> None:
        """Drop all records and marks (between benchmark phases)."""
        self.marks: List[Tuple[float, str]] = []
        self._by_dir: Dict[str, _DirectionIndex] = {}
        self._order: List[str] = []  # each record's direction
        self._last_time = float("-inf")

    @property
    def records(self) -> List[PacketRecord]:
        """Every record so far, in the order it was logged."""
        rows = {d: zip(idx.times, idx.prefix, idx.prefix[1:])
                for d, idx in self._by_dir.items()}
        out = []
        for direction in self._order:
            time, before, after = next(rows[direction])
            out.append(PacketRecord(time, direction, after - before))
        return out

    def _indexes(self, direction: Optional[str]) -> List[_DirectionIndex]:
        return [idx for d, idx in self._by_dir.items()
                if direction in (None, d)]

    # -- analysis -----------------------------------------------------------

    def total_bytes(self, direction: Optional[str] = None,
                    start: float = float("-inf"),
                    end: float = float("inf")) -> int:
        return sum(idx.total(start, end)
                   for idx in self._indexes(direction))

    def last_packet_time(self, direction: Optional[str] = None,
                         before: float = float("inf")) -> Optional[float]:
        return max((t for t in (idx.last(before)
                                for idx in self._indexes(direction))
                    if t is not None), default=None)

    def rate(self, direction: Optional[str] = None, window: float = 0.25,
             now: float = 0.0) -> float:
        """Bits per second delivered over the trailing *window* ending
        at *now* (inclusive on both ends, like :meth:`total_bytes`)."""
        if window <= 0:
            raise ValueError("window must be positive")
        return self.total_bytes(direction, start=now - window,
                                end=now) * 8.0 / window

    def __len__(self) -> int:
        return len(self._order)
