"""Tests for the bitmap font."""

import string

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.display.font import (ADVANCE, GLYPH_HEIGHT, GLYPH_WIDTH,
                                glyph_bitmap, render_text_mask, text_extent)
from tests.display.reference import render_text_mask_ref


class TestGlyphs:
    def test_shape(self):
        assert glyph_bitmap("A").shape == (GLYPH_HEIGHT, GLYPH_WIDTH)

    def test_space_is_blank(self):
        assert not glyph_bitmap(" ").any()

    def test_letters_are_not_blank(self):
        for ch in "AZaz09!?":
            assert glyph_bitmap(ch).any(), ch

    def test_lowercase_maps_to_uppercase(self):
        assert np.array_equal(glyph_bitmap("a"), glyph_bitmap("A"))

    def test_distinct_letters_differ(self):
        assert not np.array_equal(glyph_bitmap("A"), glyph_bitmap("B"))

    def test_unknown_codepoint_gets_stable_pseudo_glyph(self):
        a = glyph_bitmap("é")
        b = glyph_bitmap("é")
        assert a.any()
        assert np.array_equal(a, b)

    def test_cache_returns_readonly(self):
        mask = glyph_bitmap("A")
        assert not mask.flags.writeable

    @given(st.characters(min_codepoint=32, max_codepoint=0x2FF))
    @settings(max_examples=100, deadline=None)
    def test_every_char_renders(self, ch):
        mask = glyph_bitmap(ch)
        assert mask.shape == (GLYPH_HEIGHT, GLYPH_WIDTH)
        if ch != " ":
            assert mask.any()


class TestText:
    def test_extent(self):
        assert text_extent("") == (0, GLYPH_HEIGHT)
        assert text_extent("A") == (GLYPH_WIDTH, GLYPH_HEIGHT)
        assert text_extent("AB") == (2 * ADVANCE - 1, GLYPH_HEIGHT)

    def test_render_mask_places_glyphs(self):
        mask = render_text_mask("AB")
        assert np.array_equal(mask[:, :GLYPH_WIDTH], glyph_bitmap("A"))
        assert np.array_equal(mask[:, ADVANCE : ADVANCE + GLYPH_WIDTH],
                              glyph_bitmap("B"))
        # Inter-glyph column is blank.
        assert not mask[:, GLYPH_WIDTH].any()

    def test_render_empty_string(self):
        mask = render_text_mask("")
        assert mask.shape[0] == GLYPH_HEIGHT
        assert not mask.any()

    # Lowercase (drawn as uppercase), space, and code points the font
    # has only pseudo-glyphs for.
    @given(st.text(alphabet=string.ascii_lowercase + " é中\x00"))
    @example("")
    @settings(max_examples=200, deadline=None)
    def test_render_mask_equals_the_per_glyph_reference(self, text):
        mask = render_text_mask(text)
        expected = render_text_mask_ref(text)
        assert mask.dtype == bool and mask.flags.c_contiguous
        assert mask.shape == expected.shape
        assert np.array_equal(mask, expected)
        # A fresh array each time: a queued BITMAP keeps it as its mask.
        assert not np.shares_memory(mask, render_text_mask(text))
