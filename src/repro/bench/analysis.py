"""Post-run analysis: wire breakdowns and latency statistics.

Turns raw measurement material (client command counters, packet traces,
latency samples) into the summaries the examples and the CLI print —
the reproduction's equivalent of the paper's discussion paragraphs that
interpret the figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

__all__ = ["CommandMix", "command_mix", "latency_stats", "LatencyStats",
           "bandwidth_timeline"]


@dataclass(frozen=True)
class CommandMix:
    """How a session's wire bytes divide across protocol commands."""

    counts: Dict[str, int]
    bytes_by_kind: Dict[str, int]

    @property
    def total_commands(self) -> int:
        return sum(self.counts.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_kind.values())

    def share(self, kind: str) -> float:
        """Fraction of wire bytes carried by *kind* (0 when none)."""
        total = self.total_bytes
        return self.bytes_by_kind.get(kind, 0) / total if total else 0.0

    def table_rows(self) -> List[List[str]]:
        rows = []
        for kind in sorted(self.bytes_by_kind,
                           key=self.bytes_by_kind.get, reverse=True):
            rows.append([
                kind.upper(),
                str(self.counts.get(kind, 0)),
                f"{self.bytes_by_kind[kind]:,}",
                f"{self.share(kind) * 100:.1f}%",
            ])
        return rows


def command_mix(trace_records) -> CommandMix:
    """Compute the command mix from recorded protocol chunks.

    Accepts the records produced by :mod:`repro.protocol.trace`.
    """
    from ..protocol import wire

    parser = wire.StreamParser()
    counts: Dict[str, int] = {}
    sizes: Dict[str, int] = {}
    for record in trace_records:
        for msg in parser.feed(record.data):
            kind = getattr(msg, "kind", type(msg).__name__)
            counts[kind] = counts.get(kind, 0) + 1
            if hasattr(msg, "wire_size"):
                size = msg.wire_size()
            elif hasattr(msg, "encode_payload"):
                size = len(msg.encode_payload())
            else:
                size = 0
            sizes[kind] = sizes.get(kind, 0) + size
    return CommandMix(counts, sizes)


@dataclass(frozen=True)
class LatencyStats:
    """Order statistics over a latency sample."""

    count: int
    mean: float
    median: float
    p95: float
    maximum: float

    def row(self, label: str) -> List[str]:
        to_ms = lambda v: f"{v * 1000:.1f} ms"  # noqa: E731
        return [label, str(self.count), to_ms(self.mean),
                to_ms(self.median), to_ms(self.p95), to_ms(self.maximum)]


def latency_stats(samples: Sequence[float]) -> LatencyStats:
    """Summarise latency samples (keystroke echoes, page loads)."""
    if not samples:
        raise ValueError("no samples to summarise")
    ordered = sorted(samples)
    n = len(ordered)

    def quantile(q: float) -> float:
        # Nearest-rank on the sorted sample; robust for small n.
        index = min(n - 1, max(0, round(q * (n - 1))))
        return ordered[index]

    return LatencyStats(
        count=n,
        mean=sum(ordered) / n,
        median=quantile(0.5),
        p95=quantile(0.95),
        maximum=ordered[-1],
    )


def bandwidth_timeline(monitor, bucket: float = 0.5,
                       direction: str = "server->client"
                       ) -> List[Tuple[float, float]]:
    """(time, Mbps) points from a packet trace, bucketed.

    The raw material for a Figure-7-style bandwidth-over-time view.
    """
    if bucket <= 0:
        raise ValueError("bucket must be positive")
    buckets: Dict[int, int] = {}
    for record in monitor.records:
        if record.direction != direction:
            continue
        buckets[int(record.time // bucket)] = \
            buckets.get(int(record.time // bucket), 0) + record.size
    return [(index * bucket, nbytes * 8 / bucket / 1e6)
            for index, nbytes in sorted(buckets.items())]
