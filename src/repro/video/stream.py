"""Synthetic video sources.

The paper's A/V benchmark plays a 34.75 s, 352x240 MPEG-1 clip.  MPEG
decoding happens in the *application* (MPlayer) — what reaches the
display system, and hence THINC, is the decoded YV12 frame stream.
:class:`SyntheticVideoClip` therefore generates decoded frames directly:
temporally coherent moving content with photographic texture, matching
the data volume (12 bpp x resolution x frame rate) and the
incompressibility characteristics of real decoded video.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from . import yuv

__all__ = ["SyntheticVideoClip", "BENCHMARK_CLIP"]


class SyntheticVideoClip:
    """A deterministic generator of decoded video frames."""

    def __init__(self, width: int = 352, height: int = 240,
                 fps: float = 24.0, duration: float = 34.75,
                 seed: int = 2005):
        if width % 2 or height % 2:
            raise ValueError("frame dimensions must be even for YV12")
        if fps <= 0 or duration <= 0:
            raise ValueError("fps and duration must be positive")
        self.width = width
        self.height = height
        self.fps = fps
        self.duration = duration
        self.seed = seed
        # A static textured background the camera "pans" across.
        rng = np.random.default_rng(seed)
        self._backdrop = rng.integers(
            0, 256, size=(height * 2, width * 2, 3), dtype=np.uint8)
        # Smooth the noise into photographic-looking texture.
        self._backdrop = (
            self._backdrop.astype(np.uint16)
            + np.roll(self._backdrop, 1, axis=0)
            + np.roll(self._backdrop, 1, axis=1)
            + np.roll(self._backdrop, 2, axis=1)
        ) // 4
        self._backdrop = self._backdrop.astype(np.uint8)

    @property
    def frame_count(self) -> int:
        return int(round(self.duration * self.fps))

    @property
    def frame_interval(self) -> float:
        return 1.0 / self.fps

    @property
    def frame_bytes(self) -> int:
        """Bytes of one decoded YV12 frame."""
        return yuv.yv12_frame_size(self.width, self.height)

    def rgb_frame(self, index: int) -> np.ndarray:
        """Decoded RGB content of frame *index* (deterministic)."""
        if not 0 <= index < self.frame_count:
            raise IndexError(f"frame {index} outside clip")
        # Pan diagonally across the backdrop; add a moving bright blob
        # so consecutive frames differ everywhere a codec would differ.
        ox = (index * 3) % self.width
        oy = (index * 2) % self.height
        frame = self._backdrop[oy : oy + self.height,
                               ox : ox + self.width].copy()
        cx = int((0.5 + 0.4 * np.sin(index / 9.0)) * self.width)
        cy = int((0.5 + 0.4 * np.cos(index / 7.0)) * self.height)
        ys, xs = np.ogrid[: self.height, : self.width]
        blob = (xs - cx) ** 2 + (ys - cy) ** 2 < (self.height // 6) ** 2
        frame[blob] = np.minimum(frame[blob].astype(np.uint16) + 90,
                                 255).astype(np.uint8)
        return frame

    def yv12_frame(self, index: int) -> bytes:
        """Frame *index* in the YV12 wire layout (what MPlayer hands X)."""
        return self.encoded_frame(index, "YV12")

    def encoded_frame(self, index: int, pixel_format: str = "YV12") -> bytes:
        """Frame *index* in any registered wire pixel format."""
        return yuv.encode_frame(pixel_format, self.rgb_frame(index))

    def frames(self, limit: Optional[int] = None) -> Iterator[Tuple[float, bytes]]:
        """Yield (presentation time, yv12 bytes) pairs."""
        count = self.frame_count if limit is None else min(
            limit, self.frame_count)
        for i in range(count):
            yield (i * self.frame_interval, self.yv12_frame(i))


def BENCHMARK_CLIP() -> SyntheticVideoClip:
    """The paper's benchmark clip: 34.75 s of 352x240 video at 24 fps."""
    return SyntheticVideoClip(width=352, height=240, fps=24.0,
                              duration=34.75)
