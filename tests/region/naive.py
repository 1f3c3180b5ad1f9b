"""The naive list-of-rectangles region: the banded engine's oracle.

This is the pre-banded :class:`~repro.region.region.Region` — a flat
list of disjoint rectangles where every set operation is an O(n*m)
rectangle loop.  It is kept as the correctness oracle: the property
suite beside it (``test_banded_equivalence.py``) asserts the banded
engine is observationally equivalent to this implementation under
random operation sequences.

Nothing in ``src/repro`` uses it; the production region algebra is
:class:`repro.region.region.Region`.  Do not "optimise" it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence

from repro.region import Rect

__all__ = ["NaiveRegion"]


class NaiveRegion:
    """A set of pixels stored as an unordered list of disjoint rects."""

    __slots__ = ("_rects",)

    def __init__(self, rects: Optional[Iterable[Rect]] = None):
        self._rects: List[Rect] = []
        if rects:
            for r in rects:
                self.add(r)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rect(cls, rect: Rect) -> "NaiveRegion":
        region = cls()
        if rect:
            region._rects.append(rect)
        return region

    @classmethod
    def empty(cls) -> "NaiveRegion":
        return cls()

    def copy(self) -> "NaiveRegion":
        dup = NaiveRegion()
        dup._rects = list(self._rects)
        return dup

    # -- inspection --------------------------------------------------------

    @property
    def rects(self) -> Sequence[Rect]:
        return tuple(self._rects)

    @property
    def is_empty(self) -> bool:
        return not self._rects

    @property
    def area(self) -> int:
        return sum(r.area for r in self._rects)

    @property
    def bounds(self) -> Rect:
        """Smallest rectangle covering the whole region."""
        if not self._rects:
            return Rect(0, 0, 0, 0)
        x1 = min(r.x for r in self._rects)
        y1 = min(r.y for r in self._rects)
        x2 = max(r.x2 for r in self._rects)
        y2 = max(r.y2 for r in self._rects)
        return Rect.from_corners(x1, y1, x2, y2)

    def contains_point(self, x: int, y: int) -> bool:
        return any(r.contains_point(x, y) for r in self._rects)

    def contains_rect(self, rect: Rect) -> bool:
        """True when every pixel of *rect* is in the region."""
        if rect.empty:
            return True
        remaining = [rect]
        for r in self._rects:
            nxt: List[Rect] = []
            for piece in remaining:
                nxt.extend(piece.subtract(r))
            remaining = nxt
            if not remaining:
                return True
        return not remaining

    def overlaps_rect(self, rect: Rect) -> bool:
        return any(r.overlaps(rect) for r in self._rects)

    def overlaps(self, other: "NaiveRegion") -> bool:
        return any(self.overlaps_rect(r) for r in other._rects)

    # -- mutation ------------------------------------------------------------

    def add(self, rect: Rect) -> None:
        """Union a rectangle into the region, keeping rects disjoint."""
        if rect.empty:
            return
        pending = [rect]
        for existing in self._rects:
            nxt: List[Rect] = []
            for piece in pending:
                nxt.extend(piece.subtract(existing))
            pending = nxt
            if not pending:
                return
        self._rects.extend(pending)

    def subtract_rect(self, rect: Rect) -> None:
        if rect.empty or not self._rects:
            return
        out: List[Rect] = []
        for existing in self._rects:
            out.extend(existing.subtract(rect))
        self._rects = out

    def union(self, other: "NaiveRegion") -> "NaiveRegion":
        result = self.copy()
        for r in other._rects:
            result.add(r)
        return result

    def subtract(self, other: "NaiveRegion") -> "NaiveRegion":
        result = self.copy()
        for r in other._rects:
            result.subtract_rect(r)
        return result

    def intersect_rect(self, rect: Rect) -> "NaiveRegion":
        result = NaiveRegion()
        for existing in self._rects:
            clipped = existing.intersect(rect)
            if clipped:
                result._rects.append(clipped)
        return result

    def intersect(self, other: "NaiveRegion") -> "NaiveRegion":
        result = NaiveRegion()
        for r in other._rects:
            part = self.intersect_rect(r)
            result._rects.extend(part._rects)
        return result

    def translate(self, dx: int, dy: int) -> "NaiveRegion":
        result = NaiveRegion()
        result._rects = [r.translate(dx, dy) for r in self._rects]
        return result

    # -- protocol glue ------------------------------------------------------

    def __iter__(self) -> Iterator[Rect]:
        return iter(self._rects)

    def __len__(self) -> int:
        return len(self._rects)

    def __bool__(self) -> bool:
        return bool(self._rects)

    def __eq__(self, other: object) -> bool:
        """Pixel-set equality (representation independent)."""
        if not isinstance(other, NaiveRegion):
            return NotImplemented
        return self.area == other.area and self.intersect(other).area == self.area

    def __hash__(self):  # regions are mutable; forbid hashing
        raise TypeError("NaiveRegion is unhashable")

    def __repr__(self) -> str:
        return f"NaiveRegion({len(self._rects)} rects, area={self.area})"
