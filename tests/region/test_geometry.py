"""Unit and property tests for Rect."""

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.region import EMPTY_RECT, Rect

rect_coords = st.integers(min_value=-50, max_value=50)
rect_sizes = st.integers(min_value=-5, max_value=30)


def rects():
    return st.builds(Rect, rect_coords, rect_coords, rect_sizes, rect_sizes)


def nonempty_rects():
    sizes = st.integers(min_value=1, max_value=30)
    return st.builds(Rect, rect_coords, rect_coords, sizes, sizes)


class TestBasics:
    def test_corners(self):
        r = Rect(2, 3, 10, 20)
        assert (r.x2, r.y2) == (12, 23)
        assert r.area == 200
        assert not r.empty

    def test_degenerate_normalises_to_canonical_empty(self):
        assert Rect(5, 5, 0, 10) == EMPTY_RECT
        assert Rect(5, 5, 10, -3) == EMPTY_RECT
        assert Rect(5, 5, 0, 0).area == 0

    def test_from_corners(self):
        assert Rect.from_corners(1, 2, 4, 6) == Rect(1, 2, 3, 4)
        assert Rect.from_corners(4, 2, 1, 6).empty

    def test_bool(self):
        assert Rect(0, 0, 1, 1)
        assert not EMPTY_RECT

    def test_contains_point_half_open(self):
        r = Rect(0, 0, 4, 4)
        assert r.contains_point(0, 0)
        assert r.contains_point(3, 3)
        assert not r.contains_point(4, 0)
        assert not r.contains_point(0, 4)
        assert not r.contains_point(-1, 0)

    def test_as_tuple_and_pixels(self):
        r = Rect(1, 1, 2, 2)
        assert r.as_tuple() == (1, 1, 2, 2)
        assert set(r.pixels()) == {(1, 1), (2, 1), (1, 2), (2, 2)}


class TestSetOps:
    def test_intersect_overlap(self):
        a = Rect(0, 0, 10, 10)
        b = Rect(5, 5, 10, 10)
        assert a.intersect(b) == Rect(5, 5, 5, 5)

    def test_intersect_disjoint_is_empty(self):
        assert Rect(0, 0, 4, 4).intersect(Rect(10, 10, 4, 4)).empty

    def test_intersect_touching_edges_is_empty(self):
        assert Rect(0, 0, 4, 4).intersect(Rect(4, 0, 4, 4)).empty

    def test_union_bounds(self):
        a = Rect(0, 0, 2, 2)
        b = Rect(8, 8, 2, 2)
        assert a.union_bounds(b) == Rect(0, 0, 10, 10)
        assert a.union_bounds(EMPTY_RECT) == a
        assert EMPTY_RECT.union_bounds(b) == b

    def test_subtract_hole_in_middle(self):
        outer = Rect(0, 0, 10, 10)
        hole = Rect(3, 3, 4, 4)
        pieces = outer.subtract(hole)
        assert len(pieces) == 4
        assert sum(p.area for p in pieces) == outer.area - hole.area
        for p in pieces:
            assert not p.overlaps(hole)
            assert outer.contains(p)

    def test_subtract_no_overlap_returns_self(self):
        r = Rect(0, 0, 4, 4)
        assert r.subtract(Rect(10, 10, 2, 2)) == [r]

    def test_subtract_full_cover_returns_nothing(self):
        assert Rect(2, 2, 3, 3).subtract(Rect(0, 0, 10, 10)) == []

    def test_contains_empty_in_everything(self):
        assert Rect(0, 0, 1, 1).contains(EMPTY_RECT)
        assert EMPTY_RECT.contains(EMPTY_RECT)
        assert not EMPTY_RECT.contains(Rect(0, 0, 1, 1))


class TestTransforms:
    def test_translate(self):
        assert Rect(1, 2, 3, 4).translate(10, -2) == Rect(11, 0, 3, 4)
        assert EMPTY_RECT.translate(5, 5).empty

    def test_scale_covers_source(self):
        r = Rect(3, 3, 5, 5)
        s = r.scale(0.5, 0.5)
        # Outward rounding: every scaled source pixel lands inside.
        assert s.x <= math.floor(3 * 0.5)
        assert s.x2 >= math.ceil(8 * 0.5)

    def test_scale_identity(self):
        r = Rect(3, 4, 5, 6)
        assert r.scale(1.0, 1.0) == r


class TestProperties:
    @given(rects(), rects())
    def test_intersection_commutes(self, a, b):
        assert a.intersect(b) == b.intersect(a)

    @given(rects(), rects())
    def test_intersection_contained_in_both(self, a, b):
        c = a.intersect(b)
        assert a.contains(c) and b.contains(c)

    @given(rects())
    def test_self_intersection_identity(self, a):
        assert a.intersect(a) == a

    @given(nonempty_rects(), rects())
    def test_subtract_partition(self, a, b):
        """subtract() pieces are disjoint and tile exactly a - b."""
        pieces = a.subtract(b)
        assert sum(p.area for p in pieces) == a.area - a.intersect(b).area
        for i, p in enumerate(pieces):
            assert not p.overlaps(b)
            assert a.contains(p)
            for q in pieces[i + 1 :]:
                assert not p.overlaps(q)

    @given(rects(), rects())
    def test_overlap_iff_positive_intersection(self, a, b):
        assert a.overlaps(b) == (a.intersect(b).area > 0)

    @given(rects(), rects())
    def test_union_bounds_contains_both(self, a, b):
        u = a.union_bounds(b)
        assert u.contains(a) and u.contains(b)

    @given(nonempty_rects(), st.integers(-20, 20), st.integers(-20, 20))
    def test_translate_roundtrip(self, a, dx, dy):
        assert a.translate(dx, dy).translate(-dx, -dy) == a
