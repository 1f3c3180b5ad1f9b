"""A 5x7 bitmap font for the simulated window server.

Text drawing in the simulator mirrors what a real X server hands to the
video driver: each glyph is a small 1-bit stipple applied with a
foreground colour.  THINC translates exactly that into BITMAP protocol
commands, so the font only needs to be deterministic and glyph-shaped —
legibility is a bonus, fidelity to any particular typeface is not.

Glyphs are encoded as five column bytes (LSB = top row), the classic
layout used by small OLED/LCD fonts.  Characters without an explicit
glyph fall back to a deterministic pseudo-glyph so every code point has
a stable, non-empty bitmap.
"""

from __future__ import annotations

from functools import cache
from typing import Dict, Tuple

import numpy as np

__all__ = ["GLYPH_WIDTH", "GLYPH_HEIGHT", "ADVANCE", "glyph_bitmap",
           "glyph_coverage", "render_text_mask", "text_extent"]

GLYPH_WIDTH = 5
GLYPH_HEIGHT = 7
ADVANCE = GLYPH_WIDTH + 1  # one column of inter-glyph spacing

# Column-encoded 5x7 glyphs (bit 0 = top pixel of the column).
_FONT: Dict[str, Tuple[int, int, int, int, int]] = {
    " ": (0x00, 0x00, 0x00, 0x00, 0x00),
    "!": (0x00, 0x00, 0x5F, 0x00, 0x00),
    '"': (0x00, 0x07, 0x00, 0x07, 0x00),
    "#": (0x14, 0x7F, 0x14, 0x7F, 0x14),
    "$": (0x24, 0x2A, 0x7F, 0x2A, 0x12),
    "%": (0x23, 0x13, 0x08, 0x64, 0x62),
    "&": (0x36, 0x49, 0x55, 0x22, 0x50),
    "'": (0x00, 0x05, 0x03, 0x00, 0x00),
    "(": (0x00, 0x1C, 0x22, 0x41, 0x00),
    ")": (0x00, 0x41, 0x22, 0x1C, 0x00),
    "*": (0x14, 0x08, 0x3E, 0x08, 0x14),
    "+": (0x08, 0x08, 0x3E, 0x08, 0x08),
    ",": (0x00, 0x50, 0x30, 0x00, 0x00),
    "-": (0x08, 0x08, 0x08, 0x08, 0x08),
    ".": (0x00, 0x60, 0x60, 0x00, 0x00),
    "/": (0x20, 0x10, 0x08, 0x04, 0x02),
    "0": (0x3E, 0x51, 0x49, 0x45, 0x3E),
    "1": (0x00, 0x42, 0x7F, 0x40, 0x00),
    "2": (0x42, 0x61, 0x51, 0x49, 0x46),
    "3": (0x21, 0x41, 0x45, 0x4B, 0x31),
    "4": (0x18, 0x14, 0x12, 0x7F, 0x10),
    "5": (0x27, 0x45, 0x45, 0x45, 0x39),
    "6": (0x3C, 0x4A, 0x49, 0x49, 0x30),
    "7": (0x01, 0x71, 0x09, 0x05, 0x03),
    "8": (0x36, 0x49, 0x49, 0x49, 0x36),
    "9": (0x06, 0x49, 0x49, 0x29, 0x1E),
    ":": (0x00, 0x36, 0x36, 0x00, 0x00),
    ";": (0x00, 0x56, 0x36, 0x00, 0x00),
    "<": (0x08, 0x14, 0x22, 0x41, 0x00),
    "=": (0x14, 0x14, 0x14, 0x14, 0x14),
    ">": (0x00, 0x41, 0x22, 0x14, 0x08),
    "?": (0x02, 0x01, 0x51, 0x09, 0x06),
    "@": (0x32, 0x49, 0x79, 0x41, 0x3E),
    "A": (0x7E, 0x11, 0x11, 0x11, 0x7E),
    "B": (0x7F, 0x49, 0x49, 0x49, 0x36),
    "C": (0x3E, 0x41, 0x41, 0x41, 0x22),
    "D": (0x7F, 0x41, 0x41, 0x22, 0x1C),
    "E": (0x7F, 0x49, 0x49, 0x49, 0x41),
    "F": (0x7F, 0x09, 0x09, 0x09, 0x01),
    "G": (0x3E, 0x41, 0x49, 0x49, 0x7A),
    "H": (0x7F, 0x08, 0x08, 0x08, 0x7F),
    "I": (0x00, 0x41, 0x7F, 0x41, 0x00),
    "J": (0x20, 0x40, 0x41, 0x3F, 0x01),
    "K": (0x7F, 0x08, 0x14, 0x22, 0x41),
    "L": (0x7F, 0x40, 0x40, 0x40, 0x40),
    "M": (0x7F, 0x02, 0x0C, 0x02, 0x7F),
    "N": (0x7F, 0x04, 0x08, 0x10, 0x7F),
    "O": (0x3E, 0x41, 0x41, 0x41, 0x3E),
    "P": (0x7F, 0x09, 0x09, 0x09, 0x06),
    "Q": (0x3E, 0x41, 0x51, 0x21, 0x5E),
    "R": (0x7F, 0x09, 0x19, 0x29, 0x46),
    "S": (0x46, 0x49, 0x49, 0x49, 0x31),
    "T": (0x01, 0x01, 0x7F, 0x01, 0x01),
    "U": (0x3F, 0x40, 0x40, 0x40, 0x3F),
    "V": (0x1F, 0x20, 0x40, 0x20, 0x1F),
    "W": (0x3F, 0x40, 0x38, 0x40, 0x3F),
    "X": (0x63, 0x14, 0x08, 0x14, 0x63),
    "Y": (0x07, 0x08, 0x70, 0x08, 0x07),
    "Z": (0x61, 0x51, 0x49, 0x45, 0x43),
    "[": (0x00, 0x7F, 0x41, 0x41, 0x00),
    "\\": (0x02, 0x04, 0x08, 0x10, 0x20),
    "]": (0x00, 0x41, 0x41, 0x7F, 0x00),
    "^": (0x04, 0x02, 0x01, 0x02, 0x04),
    "_": (0x40, 0x40, 0x40, 0x40, 0x40),
    "`": (0x00, 0x01, 0x02, 0x04, 0x00),
    "{": (0x00, 0x08, 0x36, 0x41, 0x00),
    "|": (0x00, 0x00, 0x7F, 0x00, 0x00),
    "}": (0x00, 0x41, 0x36, 0x08, 0x00),
    "~": (0x08, 0x04, 0x08, 0x10, 0x08),
}

_GLYPH_CACHE: Dict[str, np.ndarray] = {}


def _pseudo_glyph(ch: str) -> Tuple[int, int, int, int, int]:
    """Deterministic non-empty glyph for characters without a real one."""
    code = ord(ch)
    cols = []
    state = (code * 2654435761) & 0xFFFFFFFF
    for _ in range(GLYPH_WIDTH):
        state = (state * 1103515245 + 12345) & 0xFFFFFFFF
        cols.append(((state >> 16) & 0x7F) | 0x08)  # never blank
    return tuple(cols)  # type: ignore[return-value]


def glyph_bitmap(ch: str) -> np.ndarray:
    """The 7x5 boolean pixel mask for one character."""
    if len(ch) != 1:
        raise ValueError("glyph_bitmap takes a single character")
    cached = _GLYPH_CACHE.get(ch)
    if cached is not None:
        return cached
    key = ch
    if key not in _FONT and key.upper() in _FONT:
        key = key.upper()  # lowercase renders as uppercase
    cols = _FONT.get(key) or _pseudo_glyph(ch)
    mask = np.zeros((GLYPH_HEIGHT, GLYPH_WIDTH), dtype=bool)
    for cx, colbits in enumerate(cols):
        for cy in range(GLYPH_HEIGHT):
            mask[cy, cx] = bool((colbits >> cy) & 1)
    mask.setflags(write=False)
    _GLYPH_CACHE[ch] = mask
    return mask


_COVERAGE_CACHE: Dict[Tuple[str, int], np.ndarray] = {}


def glyph_coverage(ch: str, scale: int = 2) -> np.ndarray:
    """Anti-aliased coverage for one glyph, as a float HxW in [0, 1].

    Renders the 1-bit glyph at *scale* x resolution with half-pixel
    offsets and box-averages back down — the supersampling a font
    rasteriser performs.  Coverage feeds the alpha channel of a
    COMPOSITE command (the paper's anti-aliased-text case for carrying
    alpha in the protocol).
    """
    if scale < 1:
        raise ValueError("scale must be at least 1")
    key = (ch, scale)
    cached = _COVERAGE_CACHE.get(key)
    if cached is not None:
        return cached
    mask = glyph_bitmap(ch).astype(np.float64)
    if scale == 1:
        coverage = mask
    else:
        big = np.repeat(np.repeat(mask, scale, 0), scale, 1)
        # Half-texel blur before downsampling: neighbours bleed a
        # quarter of their ink, softening the staircase.
        blurred = (2 * big + np.roll(big, 1, 0) + np.roll(big, 1, 1)) / 4
        h, w = mask.shape
        coverage = blurred.reshape(h, scale, w, scale).mean(axis=(1, 3))
    coverage = np.clip(coverage, 0.0, 1.0)
    coverage.setflags(write=False)
    _COVERAGE_CACHE[key] = coverage
    return coverage


def text_extent(text: str) -> Tuple[int, int]:
    """(width, height) in pixels of a single-line string."""
    if not text:
        return (0, GLYPH_HEIGHT)
    return (len(text) * ADVANCE - 1, GLYPH_HEIGHT)


@cache
def _cell(ch: str) -> np.ndarray:
    """One character's slot in a line: its glyph and the blank column."""
    cell = np.zeros((GLYPH_HEIGHT, ADVANCE), dtype=bool)
    cell[:, :GLYPH_WIDTH] = glyph_bitmap(ch)
    return cell


def render_text_mask(text: str) -> np.ndarray:
    """Render a one-line string into a boolean mask (the BITMAP payload)."""
    if not text:
        return np.zeros((GLYPH_HEIGHT, 1), dtype=bool)
    cells = list(map(_cell, text))
    cells[-1] = cells[-1][:, :GLYPH_WIDTH]
    return np.concatenate(cells, axis=1)
