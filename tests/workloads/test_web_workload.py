"""Tests for the web page-set generator and browser model."""

import numpy as np
import pytest

from repro.display import RecordingDriver, WindowServer
from repro.workloads.web import (PAGE_COUNT, WebBrowserApp, make_page_set,
                                 render_element_pixels)


class TestPageSet:
    def test_default_count_matches_ibench(self):
        assert PAGE_COUNT == 54

    @pytest.mark.claims
    def test_default_page_set_is_the_ibench_set(self):
        assert len(make_page_set()) == 54

    def test_deterministic(self):
        a = make_page_set(count=6)
        b = make_page_set(count=6)
        for pa, pb in zip(a, b):
            assert pa.content_bytes == pb.content_bytes
            assert len(pa.elements) == len(pb.elements)

    def test_seed_changes_content(self):
        a = make_page_set(count=6, seed=1)
        b = make_page_set(count=6, seed=2)
        assert any(pa.content_bytes != pb.content_bytes
                   for pa, pb in zip(a, b))

    def test_mix_includes_image_heavy_pages(self):
        pages = make_page_set(count=18)
        heavy = [p for p in pages if p.image_heavy]
        assert 1 <= len(heavy) < len(pages) / 2

    def test_pages_have_text_and_images(self):
        pages = make_page_set(count=9)
        kinds = {e.kind for p in pages for e in p.elements}
        assert {"fill", "text"} <= kinds
        assert kinds & {"photo", "image"}

    def test_content_bytes_positive_and_plausible(self):
        for page in make_page_set(count=9):
            assert 600 <= page.content_bytes < 5_000_000

    def test_link_target_inside_page(self):
        for page in make_page_set(count=9):
            x, y = page.link_target
            assert 0 <= x < page.width
            assert 0 <= y < page.height

    def test_elements_render_pixels(self):
        pages = make_page_set(count=9)
        for page in pages:
            for element in page.elements:
                pixels = render_element_pixels(element)
                if element.kind in ("photo", "image"):
                    assert pixels is not None
                    assert pixels.shape == (element.rect.height,
                                            element.rect.width, 4)
                else:
                    assert pixels is None

    def test_photo_is_moderately_compressible(self):
        """Photo content must sit between flat and noise: predictive
        codecs ~0.45, plain DEFLATE ~0.6 of raw."""
        import zlib

        from repro.protocol import compression

        pages = make_page_set(count=9)
        element = next(e for p in pages for e in p.elements
                       if e.kind == "photo")
        pixels = render_element_pixels(element)
        rgb = np.ascontiguousarray(pixels[..., :3])
        png_ratio = len(compression.png_compress(rgb)) / rgb.nbytes
        z_ratio = len(zlib.compress(rgb.tobytes(), 6)) / rgb.nbytes
        assert 0.2 < png_ratio < 0.7
        assert png_ratio < z_ratio < 0.9


class TestBrowser:
    def test_render_is_double_buffered(self):
        driver = RecordingDriver()
        ws = WindowServer(256, 192, driver=driver)
        app = WebBrowserApp(ws, make_page_set(count=2, width=256,
                                              height=192))
        app.render_page(0)
        names = driver.names()
        # The page flip is one copy; everything else drew offscreen.
        assert "copy_area" in names
        onscreen_ops = [c for c in driver.calls
                        if c.name not in ("copy_area", "destroy_drawable")
                        and c.drawable_id == ws.screen.id]
        assert onscreen_ops == []
        assert app.pages_rendered == 1

    def test_render_changes_screen(self):
        ws = WindowServer(256, 192)
        app = WebBrowserApp(ws, make_page_set(count=2, width=256,
                                              height=192))
        before = ws.screen.fb.checksum()
        app.render_page(0)
        assert ws.screen.fb.checksum() != before

    def test_pixmap_freed_after_flip(self):
        ws = WindowServer(256, 192)
        app = WebBrowserApp(ws, make_page_set(count=2, width=256,
                                              height=192))
        app.render_page(0)
        assert ws.pixmaps == {}

    def test_processing_delay_scales_with_content(self):
        ws = WindowServer(256, 192)
        pages = make_page_set(count=9, width=256, height=192)
        app = WebBrowserApp(ws, pages)
        delays = [app.processing_delay(p) for p in pages]
        assert all(d > 0 for d in delays)
        assert max(delays) > min(delays)
