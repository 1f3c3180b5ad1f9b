"""Property suite: the banded Region is pixel-equivalent to NaiveRegion.

``repro.region.region.Region`` (sorted y-bands of disjoint x-spans) and
``tests.region.naive.NaiveRegion`` (the pre-PR3 list-of-disjoint-rects
reference) must describe identical pixel sets under any sequence of
operations.  Hypothesis drives both implementations through the same
random op sequences and compares every observable: pixel membership,
area, bounds, emptiness, and the contains/overlaps predicates.

A second group of properties checks the banded representation's own
canonical-form invariants — the structural guarantees that make
``Region.__eq__`` a pixel-set equality and keep every op O(n+m).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.region import Rect, Region
from tests.region.naive import NaiveRegion

_MAX = 48  # coordinate bound; keeps exact pixel-set comparison cheap


def rects(max_coord=_MAX, max_side=16):
    return st.builds(
        Rect,
        st.integers(0, max_coord),
        st.integers(0, max_coord),
        st.integers(1, max_side),
        st.integers(1, max_side),
    )


# Each op is (name, payload); applied identically to both implementations.
def ops():
    rect_ops = st.tuples(
        st.sampled_from(["add", "subtract_rect", "intersect_rect"]), rects())
    translate_ops = st.tuples(
        st.just("translate"),
        st.tuples(st.integers(-8, 8), st.integers(-8, 8)))
    region_ops = st.tuples(
        st.sampled_from(["union", "subtract", "intersect"]),
        st.lists(rects(), min_size=0, max_size=4))
    return st.lists(st.one_of(rect_ops, translate_ops, region_ops),
                    min_size=0, max_size=12)


def apply_ops(impl, sequence):
    region = impl()
    for name, payload in sequence:
        if name in ("add", "subtract_rect"):
            getattr(region, name)(payload)
        elif name == "intersect_rect":
            region = region.intersect_rect(payload)
        elif name == "translate":
            region = region.translate(*payload)
        else:
            other = impl()
            for rect in payload:
                other.add(rect)
            region = getattr(region, name)(other)
    return region


def pixels(region):
    out = set()
    for rect in region:
        for y in range(rect.y, rect.y2):
            for x in range(rect.x, rect.x2):
                out.add((x, y))
    return out


def assert_canonical(region):
    """The banded form's structural invariants (see region.py)."""
    bands = region._bands
    prev = None
    for y1, y2, spans in bands:
        assert y1 < y2, f"degenerate band {y1}..{y2}"
        assert spans, "empty span tuple stored in a band"
        px2 = None
        for x1, x2 in spans:
            assert x1 < x2, f"degenerate span {x1}..{x2}"
            if px2 is not None:
                # Strictly increasing with a gap: adjacent spans must
                # have been coalesced into one maximal span.
                assert px2 < x1, f"uncoalesced/overlapping spans at {y1}"
            px2 = x2
        if prev is not None:
            py1, py2, pspans = prev
            assert py2 <= y1, "bands overlap vertically"
            if py2 == y1:
                # Vertically adjacent bands with identical spans must
                # have been merged into one taller band.
                assert pspans != spans, "uncoalesced adjacent bands"
        prev = (y1, y2, spans)


class TestPixelEquivalence:
    @given(ops())
    @settings(max_examples=150, deadline=None)
    def test_op_sequences_agree(self, sequence):
        banded = apply_ops(Region, sequence)
        naive = apply_ops(NaiveRegion, sequence)
        assert pixels(banded) == pixels(naive)
        assert banded.area == naive.area
        assert banded.is_empty == naive.is_empty
        assert bool(banded) == bool(naive)
        if not banded.is_empty:
            assert banded.bounds == naive.bounds
        assert_canonical(banded)

    @given(ops(), rects(), st.tuples(st.integers(0, _MAX),
                                     st.integers(0, _MAX)))
    @settings(max_examples=150, deadline=None)
    def test_predicates_agree(self, sequence, probe, point):
        banded = apply_ops(Region, sequence)
        naive = apply_ops(NaiveRegion, sequence)
        assert banded.contains_point(*point) == naive.contains_point(*point)
        assert banded.contains_rect(probe) == naive.contains_rect(probe)
        assert banded.overlaps_rect(probe) == naive.overlaps_rect(probe)
        assert (banded.overlaps(Region.from_rect(probe))
                == naive.overlaps(NaiveRegion.from_rect(probe)))

    @given(st.lists(rects(), min_size=0, max_size=10), ops())
    @settings(max_examples=100, deadline=None)
    def test_pairwise_ops_agree(self, base_rects, sequence):
        banded_a = apply_ops(Region, sequence)
        naive_a = apply_ops(NaiveRegion, sequence)
        banded_b = Region()
        naive_b = NaiveRegion()
        for rect in base_rects:
            banded_b.add(rect)
            naive_b.add(rect)
        for name in ("union", "subtract", "intersect"):
            got = getattr(banded_a, name)(banded_b)
            want = getattr(naive_a, name)(naive_b)
            assert pixels(got) == pixels(want), name
            assert_canonical(got)
        assert banded_a.overlaps(banded_b) == naive_a.overlaps(naive_b)


class TestCanonicalForm:
    @given(st.lists(rects(), min_size=0, max_size=12),
           st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_insertion_order_is_irrelevant(self, rect_list, rng):
        ordered = Region()
        for rect in rect_list:
            ordered.add(rect)
        shuffled_rects = list(rect_list)
        rng.shuffle(shuffled_rects)
        shuffled = Region()
        for rect in shuffled_rects:
            shuffled.add(rect)
        # Canonical form makes structural equality a pixel-set equality,
        # so any insertion order yields the identical representation.
        assert ordered == shuffled
        assert ordered._bands == shuffled._bands

    @given(ops())
    @settings(max_examples=100, deadline=None)
    def test_every_result_is_canonical(self, sequence):
        region = apply_ops(Region, sequence)
        assert_canonical(region)
        rebuilt = Region()
        for rect in region:
            rebuilt.add(rect)
        assert rebuilt == region

    def test_equality_ignores_construction_path(self):
        a = Region.from_rect(Rect(0, 0, 10, 10))
        b = Region()
        for rect in (Rect(0, 0, 5, 10), Rect(5, 0, 5, 5), Rect(5, 5, 5, 5)):
            b.add(rect)
        assert a == b
        assert a._bands == b._bands
        assert len(a._bands) == 1
