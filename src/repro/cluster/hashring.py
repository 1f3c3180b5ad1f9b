"""Deterministic consistent-hash ring for session placement.

The coordinator places sessions on shards by hashing a stable key (the
dial identity, later the session token) onto a ring of virtual nodes —
the classic construction: each shard contributes ``REPLICAS`` points,
a key lands on the first point at or clockwise past its own hash, and
adding or removing one shard only moves the keys that hashed into its
arcs.  Hashing is ``zlib.crc32`` over ASCII labels (the same primitive
the repo's seeded RNGs use) so placement is identical across runs,
processes and platforms — a requirement for the deterministic
simulation harness, not an optimisation.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from typing import Iterable, Iterator, List, Tuple

__all__ = ["HashRing"]

#: Virtual points each node contributes to the ring.
REPLICAS = 64


def _point(label: str) -> int:
    """Ring coordinate for a label: CRC-32 plus a murmur-style finalizer.

    Raw CRC-32 of near-identical labels ("0#1", "0#2", ...) clusters —
    consecutive dial keys would pile onto one shard.  The avalanche
    mixer decorrelates them while staying exactly reproducible (pure
    32-bit integer arithmetic, no interpreter hash randomisation).
    """
    h = zlib.crc32(label.encode("utf-8"))
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & 0xFFFFFFFF
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & 0xFFFFFFFF
    return h ^ (h >> 16)


class HashRing:
    """A consistent-hash ring over hashable node identities."""

    def __init__(self, nodes: Iterable = ()):
        self._nodes: set = set()
        # Parallel sorted arrays: virtual-point hashes and their owning
        # nodes (kept separate so bisect never compares node objects).
        self._hashes: List[int] = []
        self._owners: List[object] = []
        for node in nodes:
            self.add(node)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node) -> bool:
        return node in self._nodes

    @property
    def nodes(self) -> frozenset:
        return frozenset(self._nodes)

    def _rebuild(self) -> None:
        points: List[Tuple[int, str, object]] = []
        for node in self._nodes:
            for i in range(REPLICAS):
                # repr-based tie-break keeps identical rings identical
                # regardless of insertion order.
                points.append((_point(f"{node!r}#{i}"), repr(node), node))
        points.sort(key=lambda p: (p[0], p[1]))
        self._hashes = [p[0] for p in points]
        self._owners = [p[2] for p in points]

    def add(self, node) -> None:
        if node in self._nodes:
            return
        self._nodes.add(node)
        self._rebuild()

    def remove(self, node) -> None:
        if node not in self._nodes:
            raise KeyError(node)
        self._nodes.discard(node)
        self._rebuild()

    def _start_index(self, key: str) -> int:
        idx = bisect_right(self._hashes, _point(f"key:{key}"))
        return 0 if idx == len(self._hashes) else idx  # wrap at 12 o'clock

    def lookup(self, key: str):
        """The node owning *key* (first point clockwise of its hash)."""
        if not self._hashes:
            raise LookupError("hash ring is empty")
        return self._owners[self._start_index(key)]

    def preference(self, key: str) -> Iterator:
        """Distinct nodes in ring order starting at *key*'s owner.

        The overflow-routing walk: the first yielded node is
        ``lookup(key)``; each subsequent one is the next distinct node
        clockwise, so a full iteration visits every node exactly once
        in a key-dependent but deterministic order.
        """
        if not self._hashes:
            return
        idx = self._start_index(key)
        seen = set()
        for offset in range(len(self._owners)):
            node = self._owners[(idx + offset) % len(self._owners)]
            if node not in seen:
                seen.add(node)
                yield node
