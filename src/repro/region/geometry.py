"""Rectangle geometry primitives.

Everything in the display stack is expressed in terms of axis-aligned
integer rectangles.  A :class:`Rect` uses the X-server convention of an
origin plus a width and height; the half-open span covered is
``[x, x + width) x [y, y + height)``.

Rectangles are immutable value objects.  Degenerate rectangles (zero or
negative width/height) are normalised to the canonical empty rectangle so
that emptiness has a single representation and equality behaves sanely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

__all__ = ["Rect", "EMPTY_RECT"]


@dataclass(frozen=True, order=True, slots=True)
class Rect:
    """An immutable, half-open, axis-aligned integer rectangle."""

    x: int
    y: int
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            # Canonical empty rectangle: all-zero.
            object.__setattr__(self, "x", 0)
            object.__setattr__(self, "y", 0)
            object.__setattr__(self, "width", 0)
            object.__setattr__(self, "height", 0)

    # -- basic derived coordinates ------------------------------------

    @property
    def x2(self) -> int:
        """One past the right-most column covered."""
        return self.x + self.width

    @property
    def y2(self) -> int:
        """One past the bottom-most row covered."""
        return self.y + self.height

    @property
    def area(self) -> int:
        return self.width * self.height

    @property
    def empty(self) -> bool:
        return self.width == 0 or self.height == 0

    @classmethod
    def from_corners(cls, x1: int, y1: int, x2: int, y2: int) -> "Rect":
        """Build a rectangle from two corners; empty if inverted."""
        return cls(x1, y1, x2 - x1, y2 - y1)

    # -- predicates ----------------------------------------------------

    def contains_point(self, px: int, py: int) -> bool:
        return self.x <= px < self.x2 and self.y <= py < self.y2

    def contains(self, other: "Rect") -> bool:
        """True when *other* lies entirely within this rectangle.

        The empty rectangle is contained in everything.
        """
        if other.empty:
            return True
        if self.empty:
            return False
        return (
            self.x <= other.x
            and self.y <= other.y
            and other.x2 <= self.x2
            and other.y2 <= self.y2
        )

    def overlaps(self, other: "Rect") -> bool:
        """True when the two rectangles share at least one pixel."""
        if self.empty or other.empty:
            return False
        return (
            self.x < other.x2
            and other.x < self.x2
            and self.y < other.y2
            and other.y < self.y2
        )

    # -- set-like operations -------------------------------------------

    def intersect(self, other: "Rect") -> "Rect":
        """The overlapping area of two rectangles (possibly empty)."""
        return Rect.from_corners(
            max(self.x, other.x),
            max(self.y, other.y),
            min(self.x2, other.x2),
            min(self.y2, other.y2),
        )

    def union_bounds(self, other: "Rect") -> "Rect":
        """Smallest rectangle covering both operands."""
        if self.empty:
            return other
        if other.empty:
            return self
        return Rect.from_corners(
            min(self.x, other.x),
            min(self.y, other.y),
            max(self.x2, other.x2),
            max(self.y2, other.y2),
        )

    def subtract(self, other: "Rect") -> List["Rect"]:
        """This rectangle minus *other*, as at most four disjoint rects.

        The pieces are emitted in top, bottom, left, right order and
        exactly tile ``self - other``.
        """
        clip = self.intersect(other)
        if clip.empty:
            return [] if self.empty else [self]
        pieces: List[Rect] = []
        if clip.y > self.y:  # band above the hole
            pieces.append(Rect.from_corners(self.x, self.y, self.x2, clip.y))
        if clip.y2 < self.y2:  # band below the hole
            pieces.append(Rect.from_corners(self.x, clip.y2, self.x2, self.y2))
        if clip.x > self.x:  # left remnant beside the hole
            pieces.append(Rect.from_corners(self.x, clip.y, clip.x, clip.y2))
        if clip.x2 < self.x2:  # right remnant beside the hole
            pieces.append(Rect.from_corners(clip.x2, clip.y, self.x2, clip.y2))
        return pieces

    # -- transforms ------------------------------------------------------

    def translate(self, dx: int, dy: int) -> "Rect":
        if self.empty:
            return self
        return Rect(self.x + dx, self.y + dy, self.width, self.height)

    def scale(self, sx: float, sy: float) -> "Rect":
        """Scale about the origin, rounding outward to cover the source."""
        if self.empty:
            return self
        import math

        x1 = math.floor(self.x * sx)
        y1 = math.floor(self.y * sy)
        x2 = math.ceil(self.x2 * sx)
        y2 = math.ceil(self.y2 * sy)
        return Rect.from_corners(x1, y1, x2, y2)

    # -- misc ------------------------------------------------------------

    def as_tuple(self) -> Tuple[int, int, int, int]:
        return (self.x, self.y, self.width, self.height)

    def pixels(self) -> Iterator[Tuple[int, int]]:
        """Iterate (x, y) pairs covered; intended for small test rects."""
        for py in range(self.y, self.y2):
            for px in range(self.x, self.x2):
                yield (px, py)

    def __bool__(self) -> bool:
        return not self.empty

    def __repr__(self) -> str:  # compact, log-friendly
        return f"Rect({self.x},{self.y} {self.width}x{self.height})"


EMPTY_RECT = Rect(0, 0, 0, 0)
