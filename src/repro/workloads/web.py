"""The web-browsing workload (i-Bench Web Page Load model).

The paper's web benchmark is a sequence of 54 pages mixing text and
graphics, loaded in Mozilla at full-screen resolution, advanced by a
mechanically timed mouse click on a link (Section 8.2).  This module
synthesises an equivalent page set and a browser model that renders
each page the way Mozilla renders: the page is composed in an
*offscreen* pixmap (double buffering — the behaviour THINC's offscreen
awareness exists for) and copied onscreen when complete.

Each page also knows its HTTP *content* size (HTML text plus
PNG-compressed images), which is what the local-PC baseline transfers,
and its server-side browser processing time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..display.font import ADVANCE, GLYPH_HEIGHT
from ..display.framebuffer import solid_pixels
from ..display.xserver import WindowServer
from ..protocol import compression
from ..region import Rect

__all__ = ["PageElement", "WebPage", "make_page_set", "WebBrowserApp",
           "PAGE_COUNT"]

PAGE_COUNT = 54

_WORDS = ("the quick brown fox jumps over lazy dog thin client remote "
          "display protocol network server latency bandwidth video web "
          "page benchmark system desktop user screen update command "
          "driver virtual performance measure result figure table data").split()


@dataclass
class PageElement:
    """One drawable element of a synthetic page."""

    kind: str  # "fill" | "tile" | "text" | "image" | "photo"
    rect: Rect
    color: Tuple[int, int, int, int] = (0, 0, 0, 255)
    text: str = ""
    seed: int = 0


@dataclass
class WebPage:
    """A generated page: display elements plus HTTP content accounting."""

    index: int
    width: int
    height: int
    elements: List[PageElement]
    content_bytes: int
    render_pixels: int
    image_heavy: bool
    link_target: Tuple[int, int] = (0, 0)  # where the "next" link sits


def _text_line(rng) -> str:
    count = int(rng.integers(6, 12))
    return " ".join(_WORDS[int(rng.integers(0, len(_WORDS)))]
                    for _ in range(count))


def _photo(width: int, height: int, seed: int) -> np.ndarray:
    """Photo-like content: low-frequency detail over gradients.

    Decoded web photographs are smooth at the pixel scale (JPEG has
    already thrown the high frequencies away); generate upsampled
    low-resolution noise so predictive codecs see realistic structure.
    """
    rng = np.random.default_rng(seed)
    small = rng.integers(0, 256, (height // 8 + 1, width // 8 + 1, 3))
    img = np.repeat(np.repeat(small, 8, 0), 8, 1)[:height, :width]
    # Box-smooth the block edges into gradients, sprinkle the faint
    # noise a decoded JPEG carries, and quantise the last bit away.
    # Calibrated so PNG-class predictive codecs reach ~0.45 of raw and
    # plain DEFLATE ~0.6 — the spread real web photos show.
    for _ in range(2):
        img = (img + np.roll(img, 3, 0) + np.roll(img, 3, 1)
               + np.roll(img, -3, 0)) // 4
    img = img + rng.integers(0, 2, img.shape)
    ramp = np.linspace(0, 60, width, dtype=np.int64)[None, :, None]
    img = np.clip(img + ramp, 0, 255) & ~np.int64(1)
    img = img.astype(np.uint8)
    alpha = np.full((height, width, 1), 255, dtype=np.uint8)
    return np.concatenate([img, alpha], axis=2)


def _logo(width: int, height: int, seed: int) -> np.ndarray:
    """Logo/banner content: a few flat colour bands (GIF-ish)."""
    rng = np.random.default_rng(seed)
    img = np.zeros((height, width, 4), dtype=np.uint8)
    img[..., 3] = 255
    bands = int(rng.integers(2, 5))
    for i in range(bands):
        color = rng.integers(40, 256, 3)
        x0 = i * width // bands
        img[:, x0 : (i + 1) * width // bands, :3] = color
    return img


def render_element_pixels(element: PageElement) -> Optional[np.ndarray]:
    """Materialise an image element's pixels (deterministic by seed)."""
    if element.kind == "photo":
        return _photo(element.rect.width, element.rect.height, element.seed)
    if element.kind == "image":
        return _logo(element.rect.width, element.rect.height, element.seed)
    return None


def make_page_set(count: int = PAGE_COUNT, width: int = 1024,
                  height: int = 768, seed: int = 54) -> List[WebPage]:
    """Generate the deterministic benchmark page sequence.

    Page mix follows the paper's description: mostly mixed text and
    graphics, with an occasional page that is primarily one large image
    (the pages where THINC falls back to compressed RAW).
    """
    pages = []
    for index in range(count):
        rng = np.random.default_rng(seed * 100_000 + index)
        elements: List[PageElement] = []
        content = 600  # HTTP headers + HTML skeleton
        image_heavy = index % 9 == 4
        # Page background: solid, sometimes subtly tiled.
        if rng.random() < 0.25:
            elements.append(PageElement("tile", Rect(0, 0, width, height),
                                        seed=int(rng.integers(1 << 30))))
        else:
            elements.append(PageElement(
                "fill", Rect(0, 0, width, height), (255, 255, 255, 255)))
        # Header band with the site title.
        header_color = tuple(int(v) for v in rng.integers(60, 200, 3)) + (255,)
        elements.append(PageElement("fill", Rect(0, 0, width, 48),
                                    header_color))
        title = _text_line(rng)
        # Core (bitmap) text throughout, like the paper's Mozilla 1.6
        # on XFree86 4.3; the anti-aliased path is exercised by the
        # desktop workloads and its own tests.
        elements.append(PageElement("text", Rect(16, 20, 1, 1),
                                    (255, 255, 255, 255), text=title))
        content += len(title)
        y = 64
        if image_heavy:
            w = min(width - 128, 800)
            h = min(height - 200, 500)
            element = PageElement("photo", Rect(64, y, w, h),
                                  seed=int(rng.integers(1 << 30)))
            elements.append(element)
            content += len(compression.png_compress(
                render_element_pixels(element)))
            y += h + 16
        else:
            # Era-appropriate mix: mostly text with occasional modest
            # thumbnails and banners (2005-vintage pages were light on
            # imagery; the every-ninth "image heavy" page carries the
            # large-photograph case).
            paragraphs = int(rng.integers(6, 12))
            for _ in range(paragraphs):
                if y > height - 120:
                    break
                lines = int(rng.integers(3, 7))
                for _ in range(lines):
                    text = _text_line(rng)
                    elements.append(PageElement(
                        "text", Rect(32, y, 1, 1), (20, 20, 20, 255),
                        text=text[: (width - 64) // ADVANCE]))
                    content += len(text)
                    y += GLYPH_HEIGHT + 4
                if rng.random() < 0.35 and y < height - 180:
                    kind = "photo" if rng.random() < 0.5 else "image"
                    w = int(rng.integers(100, 280))
                    h = int(rng.integers(50, 110))
                    element = PageElement(
                        kind, Rect(int(rng.integers(32, width - w - 32)),
                                   y, w, h),
                        seed=int(rng.integers(1 << 30)))
                    elements.append(element)
                    content += len(compression.png_compress(
                        render_element_pixels(element)))
                    y += h + 10
                y += 8
        # The "next page" link the mechanical mouse clicks.
        link_y = min(y + 10, height - 20)
        elements.append(PageElement("fill", Rect(32, link_y, 90, 14),
                                    (210, 210, 240, 255)))
        elements.append(PageElement("text", Rect(36, link_y + 3, 1, 1),
                                    (0, 0, 180, 255), text="NEXT PAGE"))
        render_pixels = sum(
            e.rect.area if not e.kind.startswith("text")
            else len(e.text) * ADVANCE * GLYPH_HEIGHT
            for e in elements)
        pages.append(WebPage(index, width, height, elements, content,
                             render_pixels, image_heavy,
                             link_target=(32 + 45, link_y + 7)))
    return pages


class WebBrowserApp:
    """A Mozilla-style browser driving a window server.

    Rendering is double buffered: each page is composed into an
    offscreen pixmap and copied onscreen in one flip.  The browser also
    models the server-side processing time of parsing and laying out
    the page before pixels appear.
    """

    # Content bytes parsed and pixels laid out per second.
    parse_rate = 4e6
    render_rate = 60e6

    def __init__(self, ws: WindowServer, pages: List[WebPage]):
        self.ws = ws
        self.pages = pages
        self.pages_rendered = 0

    def processing_delay(self, page: WebPage) -> float:
        """Server-side browser time before display output starts."""
        return (page.content_bytes / self.parse_rate
                + page.render_pixels / self.render_rate)

    def render_page(self, index: int) -> None:
        """Draw page *index* through the double-buffered path."""
        page = self.pages[index % len(self.pages)]
        ws = self.ws
        buffer = ws.create_pixmap(page.width, page.height,
                                  label=f"page-{page.index}")
        for element in page.elements:
            if element.kind == "fill":
                ws.fill_rect(buffer, element.rect, element.color)
            elif element.kind == "tile":
                rng = np.random.default_rng(element.seed)
                shade = int(rng.integers(225, 250))
                tile = solid_pixels(8, 8, (shade, shade, shade, 255))
                tile[::4, ::4] = (shade - 12, shade - 12, shade - 8, 255)
                ws.fill_tiled(buffer, element.rect, tile)
            elif element.kind == "text":
                ws.draw_text(buffer, element.rect.x, element.rect.y,
                             element.text, element.color)
            elif element.kind == "text_aa":
                ws.draw_text_aa(buffer, element.rect.x, element.rect.y,
                                element.text, element.color)
            else:
                pixels = render_element_pixels(element)
                ws.put_image(buffer, element.rect, pixels)
        ws.copy_area(buffer, ws.screen, buffer.bounds, 0, 0)
        ws.free_pixmap(buffer)
        self.pages_rendered += 1

    def link_position(self, index: int) -> Tuple[int, int]:
        return self.pages[index % len(self.pages)].link_target
