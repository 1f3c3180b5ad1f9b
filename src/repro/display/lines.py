"""Line rasterisation into driver-level spans.

X servers do not hand lines to 2D hardware as "lines": XAA decomposes
them into horizontal/vertical solid spans (thin fills) and per-pixel
runs for diagonals, which reach the driver as tiny solid fills.  That
is exactly the shape THINC's translation layer expects — runs of small
adjacent SFILLs that the command queue merges.

This module implements the decomposition: Bresenham's algorithm grouped
into maximal horizontal or vertical spans.
"""

from __future__ import annotations

from typing import List, Tuple

from ..region import Rect

__all__ = ["line_spans", "rect_outline_spans", "polyline_spans"]


def line_spans(x0: int, y0: int, x1: int, y1: int,
               width: int = 1) -> List[Rect]:
    """Decompose a line into maximal axis-aligned spans.

    Returns disjoint rects of the given stroke *width* that together
    cover Bresenham's pixels for the segment.  Horizontal and vertical
    lines become a single span; diagonals become one span per step run.
    """
    if width < 1:
        raise ValueError("stroke width must be at least 1")
    if y0 == y1:  # horizontal
        x_lo, x_hi = sorted((x0, x1))
        return [Rect(x_lo, y0, x_hi - x_lo + 1, width)]
    if x0 == x1:  # vertical
        y_lo, y_hi = sorted((y0, y1))
        return [Rect(x0, y_lo, width, y_hi - y_lo + 1)]

    # Canonicalise the direction so a segment and its reverse rasterise
    # to the same pixels.
    if (x0, y0) > (x1, y1):
        x0, y0, x1, y1 = x1, y1, x0, y0

    # General case: standard Bresenham, then group pixels of each row
    # into maximal horizontal runs.
    dx = abs(x1 - x0)
    dy = abs(y1 - y0)
    sx = 1 if x1 > x0 else -1
    sy = 1 if y1 > y0 else -1
    err = dx - dy
    x, y = x0, y0
    spans: List[Rect] = []
    run_start_x = x
    prev_x = x
    while True:
        if x == x1 and y == y1:
            spans.append(_run_rect(run_start_x, x, y, width))
            break
        e2 = 2 * err
        if e2 > -dy:
            err -= dy
            prev_x = x
            x += sx
        else:
            prev_x = x
        if e2 < dx:
            err += dx
            # The current row's run ends at the pixel we plotted there.
            spans.append(_run_rect(run_start_x, prev_x, y, width))
            y += sy
            run_start_x = x
    return spans


def _run_rect(x_start: int, x_end: int, y: int, width: int) -> Rect:
    lo, hi = sorted((x_start, x_end))
    return Rect(lo, y, hi - lo + 1, width)


def rect_outline_spans(rect: Rect, width: int = 1) -> List[Rect]:
    """The four edge spans of a rectangle outline (window borders)."""
    if width < 1:
        raise ValueError("stroke width must be at least 1")
    if rect.empty:
        return []
    w = min(width, rect.height // 2 or 1, rect.width // 2 or 1)
    top = Rect(rect.x, rect.y, rect.width, w)
    bottom = Rect(rect.x, rect.y2 - w, rect.width, w)
    left = Rect(rect.x, rect.y + w, w, max(rect.height - 2 * w, 0))
    right = Rect(rect.x2 - w, rect.y + w, w, max(rect.height - 2 * w, 0))
    return [r for r in (top, bottom, left, right) if r]


def polyline_spans(points: List[Tuple[int, int]]) -> List[Rect]:
    """Spans covering a connected sequence of one-pixel line segments."""
    if len(points) < 2:
        raise ValueError("a polyline needs at least two points")
    spans: List[Rect] = []
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        segment = line_spans(x0, y0, x1, y1)
        if spans and segment:
            # Avoid double-drawing the shared vertex pixel where easy.
            first = segment[0]
            if spans[-1] == first:
                segment = segment[1:]
        spans.extend(segment)
    return spans
