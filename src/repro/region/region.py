"""Region algebra over sorted y-bands of disjoint x-spans.

A :class:`Region` represents an arbitrary set of pixels the way the X
server and pixman do: as a sorted list of *bands*.  A band is a maximal
horizontal strip ``(y1, y2, spans)`` whose pixel coverage is constant
over every row in ``[y1, y2)``; ``spans`` is a sorted tuple of disjoint,
non-adjacent half-open x-intervals ``(x1, x2)``.

The representation is **canonical**: bands are sorted by ``y1``, never
overlap in y, vertically adjacent bands always differ in their spans
(else they would have been coalesced), and spans are maximal (adjacent
spans are merged).  Canonical form makes equality a structural
comparison and every binary operation a linear band merge:
``union``/``subtract``/``intersect``/``overlaps`` walk both operands'
band lists once, giving O(n + m) behaviour where the previous
list-of-rectangles implementation (kept as the test oracle
``tests/region/naive.py``) degraded to O(n * m).

The command queue and scheduler use regions to reason about which parts
of a command's output remain visible after later drawing; all consumers
treat a region purely as a pixel set, which is what the equivalence
property suite verifies against the naive reference.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .geometry import Rect

__all__ = ["Region"]

# A band is (y1, y2, spans); spans is a tuple of (x1, x2) pairs, sorted,
# disjoint and non-adjacent.  Bands are immutable tuples so ``copy`` is
# a shallow list copy.
Span = Tuple[int, int]
Band = Tuple[int, int, Tuple[Span, ...]]


# -- span arithmetic (one band row) ---------------------------------------

def _spans_union(a: Sequence[Span], b: Sequence[Span]) -> Tuple[Span, ...]:
    """Merge two sorted span lists, coalescing overlap and adjacency."""
    out: List[Span] = []
    ia = ib = 0
    na, nb = len(a), len(b)
    cx1 = cx2 = None
    while ia < na or ib < nb:
        if ib >= nb or (ia < na and a[ia][0] <= b[ib][0]):
            x1, x2 = a[ia]
            ia += 1
        else:
            x1, x2 = b[ib]
            ib += 1
        if cx1 is None:
            cx1, cx2 = x1, x2
        elif x1 <= cx2:  # overlapping or exactly adjacent: coalesce
            if x2 > cx2:
                cx2 = x2
        else:
            out.append((cx1, cx2))
            cx1, cx2 = x1, x2
    if cx1 is not None:
        out.append((cx1, cx2))
    return tuple(out)


def _spans_intersect(a: Sequence[Span], b: Sequence[Span]
                     ) -> Tuple[Span, ...]:
    out: List[Span] = []
    ia = ib = 0
    na, nb = len(a), len(b)
    while ia < na and ib < nb:
        ax1, ax2 = a[ia]
        bx1, bx2 = b[ib]
        x1 = ax1 if ax1 > bx1 else bx1
        x2 = ax2 if ax2 < bx2 else bx2
        if x1 < x2:
            out.append((x1, x2))
        if ax2 <= bx2:
            ia += 1
        else:
            ib += 1
    return tuple(out)


def _spans_subtract(a: Sequence[Span], b: Sequence[Span]
                    ) -> Tuple[Span, ...]:
    out: List[Span] = []
    ib = 0
    nb = len(b)
    for ax1, ax2 in a:
        x = ax1
        while ib < nb and b[ib][1] <= ax1:
            ib += 1
        j = ib
        while j < nb and b[j][0] < ax2 and x < ax2:
            bx1, bx2 = b[j]
            if bx1 > x:
                out.append((x, bx1))
            if bx2 > x:
                x = bx2
            j += 1
        if x < ax2:
            out.append((x, ax2))
    return tuple(out)


def _spans_touch(a: Sequence[Span], b: Sequence[Span]) -> bool:
    """Do two sorted span lists share at least one pixel column?"""
    ia = ib = 0
    na, nb = len(a), len(b)
    while ia < na and ib < nb:
        ax1, ax2 = a[ia]
        bx1, bx2 = b[ib]
        if ax1 < bx2 and bx1 < ax2:
            return True
        if ax2 <= bx2:
            ia += 1
        else:
            ib += 1
    return False


# -- band arithmetic -------------------------------------------------------

def _emit(out: List[Band], y1: int, y2: int,
          spans: Tuple[Span, ...]) -> None:
    """Append a strip, coalescing with the previous band when possible."""
    if y1 >= y2 or not spans:
        return
    if out:
        py1, py2, pspans = out[-1]
        if py2 == y1 and pspans == spans:
            out[-1] = (py1, y2, spans)
            return
    out.append((y1, y2, spans))


def _combine(abands: Sequence[Band], bbands: Sequence[Band],
             spanop, keep_a: bool, keep_b: bool) -> List[Band]:
    """The generic band-merge sweep behind union/subtract/intersect.

    Walks both sorted band lists once, splitting y into maximal strips
    over which each operand's coverage is constant.  Strips covered by
    both operands get ``spanop``; strips covered by only one operand are
    kept verbatim when the matching ``keep_*`` flag is set (union keeps
    both, subtract keeps only *a*, intersect keeps neither).
    """
    out: List[Band] = []
    ia = ib = 0
    na, nb = len(abands), len(bbands)
    # Top edge of the unconsumed part of the current band on each side.
    atop = abands[0][0] if na else 0
    btop = bbands[0][0] if nb else 0
    while ia < na and ib < nb:
        a = abands[ia]
        b = bbands[ib]
        if a[1] <= btop:  # a's band lies entirely above b's
            if keep_a:
                _emit(out, atop, a[1], a[2])
            ia += 1
            if ia < na:
                atop = abands[ia][0]
            continue
        if b[1] <= atop:
            if keep_b:
                _emit(out, btop, b[1], b[2])
            ib += 1
            if ib < nb:
                btop = bbands[ib][0]
            continue
        if atop < btop:  # a-only strip down to where b starts
            if keep_a:
                _emit(out, atop, btop, a[2])
            atop = btop
        elif btop < atop:
            if keep_b:
                _emit(out, btop, atop, b[2])
            btop = atop
        else:  # aligned tops: both cover [atop, bot)
            bot = a[1] if a[1] < b[1] else b[1]
            spans = spanop(a[2], b[2])
            if spans:
                _emit(out, atop, bot, spans)
            atop = btop = bot
            if a[1] == bot:
                ia += 1
                if ia < na:
                    atop = abands[ia][0]
            if b[1] == bot:
                ib += 1
                if ib < nb:
                    btop = bbands[ib][0]
    if keep_a and ia < na:
        _emit(out, atop, abands[ia][1], abands[ia][2])
        for y1, y2, spans in abands[ia + 1:]:
            _emit(out, y1, y2, spans)
    if keep_b and ib < nb:
        _emit(out, btop, bbands[ib][1], bbands[ib][2])
        for y1, y2, spans in bbands[ib + 1:]:
            _emit(out, y1, y2, spans)
    return out


def _find_band(bands: Sequence[Band], y: int) -> int:
    """Index of the first band whose bottom edge lies below row *y*."""
    lo, hi = 0, len(bands)
    while lo < hi:
        mid = (lo + hi) // 2
        if bands[mid][1] <= y:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _find_span(spans: Sequence[Span], x: int) -> int:
    """Index of the first span whose right edge lies past column *x*."""
    lo, hi = 0, len(spans)
    while lo < hi:
        mid = (lo + hi) // 2
        if spans[mid][1] <= x:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _rect_bands(rect: Rect) -> List[Band]:
    return [(rect.y, rect.y + rect.height,
             ((rect.x, rect.x + rect.width),))]


class Region:
    """A set of pixels stored as sorted y-bands of disjoint x-spans."""

    __slots__ = ("_bands",)

    def __init__(self, rects: Optional[Iterable[Rect]] = None):
        self._bands: List[Band] = []
        if rects:
            for r in rects:
                self.add(r)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rect(cls, rect: Rect) -> "Region":
        region = cls()
        if rect:
            region._bands = _rect_bands(rect)
        return region

    @classmethod
    def empty(cls) -> "Region":
        return cls()

    def copy(self) -> "Region":
        dup = Region()
        dup._bands = list(self._bands)
        return dup

    # -- inspection --------------------------------------------------------

    @property
    def rects(self) -> Sequence[Rect]:
        return tuple(self)

    @property
    def is_empty(self) -> bool:
        return not self._bands

    @property
    def area(self) -> int:
        total = 0
        for y1, y2, spans in self._bands:
            width = 0
            for x1, x2 in spans:
                width += x2 - x1
            total += (y2 - y1) * width
        return total

    @property
    def bounds(self) -> Rect:
        """Smallest rectangle covering the whole region."""
        bands = self._bands
        if not bands:
            return Rect(0, 0, 0, 0)
        x1 = min(band[2][0][0] for band in bands)
        x2 = max(band[2][-1][1] for band in bands)
        return Rect.from_corners(x1, bands[0][0], x2, bands[-1][1])

    def contains_point(self, x: int, y: int) -> bool:
        bands = self._bands
        i = _find_band(bands, y)
        if i >= len(bands) or bands[i][0] > y:
            return False
        spans = bands[i][2]
        j = _find_span(spans, x)
        return j < len(spans) and spans[j][0] <= x

    def contains_rect(self, rect: Rect) -> bool:
        """True when every pixel of *rect* is in the region."""
        if rect.empty:
            return True
        bands = self._bands
        n = len(bands)
        y = rect.y
        i = _find_band(bands, y)
        while y < rect.y2:
            if i >= n:
                return False
            y1, y2, spans = bands[i]
            if y1 > y:
                return False  # a row gap inside the rect
            # Spans are maximal, so containment needs a single span.
            j = _find_span(spans, rect.x)
            if (j >= len(spans) or spans[j][0] > rect.x
                    or spans[j][1] < rect.x2):
                return False
            y = y2
            i += 1
        return True

    def overlaps_rect(self, rect: Rect) -> bool:
        if rect.empty:
            return False
        bands = self._bands
        n = len(bands)
        i = _find_band(bands, rect.y)
        while i < n:
            y1, _y2, spans = bands[i]
            if y1 >= rect.y2:
                return False
            j = _find_span(spans, rect.x)
            if j < len(spans) and spans[j][0] < rect.x2:
                return True
            i += 1
        return False

    def overlaps(self, other: "Region") -> bool:
        a = self._bands
        b = other._bands
        if not a or not b:
            return False
        if len(a) > len(b):
            a, b = b, a  # walk the smaller operand's bands first
        ia = ib = 0
        na, nb = len(a), len(b)
        while ia < na and ib < nb:
            ay1, ay2, aspans = a[ia]
            by1, by2, bspans = b[ib]
            if ay2 <= by1:
                ia += 1
                continue
            if by2 <= ay1:
                ib += 1
                continue
            if _spans_touch(aspans, bspans):
                return True
            if ay2 <= by2:
                ia += 1
            else:
                ib += 1
        return False

    # -- mutation ------------------------------------------------------------

    def add(self, rect: Rect) -> None:
        """Union a rectangle into the region."""
        if rect.empty:
            return
        if not self._bands:
            self._bands = _rect_bands(rect)
            return
        self._bands = _combine(self._bands, _rect_bands(rect),
                               _spans_union, True, True)

    def subtract_rect(self, rect: Rect) -> None:
        if rect.empty or not self._bands:
            return
        self._bands = _combine(self._bands, _rect_bands(rect),
                               _spans_subtract, True, False)

    def union(self, other: "Region") -> "Region":
        result = Region()
        if not other._bands:
            result._bands = list(self._bands)
        elif not self._bands:
            result._bands = list(other._bands)
        else:
            result._bands = _combine(self._bands, other._bands,
                                     _spans_union, True, True)
        return result

    def subtract(self, other: "Region") -> "Region":
        result = Region()
        if not other._bands:
            result._bands = list(self._bands)
        elif self._bands:
            result._bands = _combine(self._bands, other._bands,
                                     _spans_subtract, True, False)
        return result

    def intersect_rect(self, rect: Rect) -> "Region":
        result = Region()
        if rect.empty or not self._bands:
            return result
        bands = self._bands
        n = len(bands)
        out: List[Band] = []
        rspans = ((rect.x, rect.x + rect.width),)
        i = _find_band(bands, rect.y)
        while i < n:
            y1, y2, spans = bands[i]
            if y1 >= rect.y2:
                break
            clipped = _spans_intersect(spans, rspans)
            if clipped:
                _emit(out, max(y1, rect.y), min(y2, rect.y2), clipped)
            i += 1
        result._bands = out
        return result

    def intersect(self, other: "Region") -> "Region":
        result = Region()
        if self._bands and other._bands:
            result._bands = _combine(self._bands, other._bands,
                                     _spans_intersect, False, False)
        return result

    def translate(self, dx: int, dy: int) -> "Region":
        result = Region()
        result._bands = [
            (y1 + dy, y2 + dy,
             tuple((x1 + dx, x2 + dx) for x1, x2 in spans))
            for y1, y2, spans in self._bands
        ]
        return result

    # -- protocol glue ------------------------------------------------------

    def __iter__(self) -> Iterator[Rect]:
        for y1, y2, spans in self._bands:
            h = y2 - y1
            for x1, x2 in spans:
                yield Rect(x1, y1, x2 - x1, h)

    def __len__(self) -> int:
        return sum(len(spans) for _y1, _y2, spans in self._bands)

    def __bool__(self) -> bool:
        return bool(self._bands)

    def __eq__(self, other: object) -> bool:
        """Pixel-set equality (canonical form makes it structural)."""
        if not isinstance(other, Region):
            return NotImplemented
        return self._bands == other._bands

    def __hash__(self):  # regions are mutable; forbid hashing
        raise TypeError("Region is unhashable")

    def __repr__(self) -> str:
        return (f"Region({len(self._bands)} bands, {len(self)} rects, "
                f"area={self.area})")
