"""Interactive workloads for the scheduling/latency ablations.

The paper motivates SRSF scheduling and the real-time queue with the
case of a user interacting while bulk output is in flight (Section 5):
a keystroke echo or button press must not wait behind a half-sent
image.  This workload reproduces that scenario: a stream of large
background updates with periodic small updates issued at the cursor in
response to injected input; the measured quantity is the echo latency
distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from ..display.xserver import WindowServer
from ..net.clock import EventLoop
from ..region import Rect

__all__ = ["TypingUnderLoadWorkload", "EchoRecord"]


@dataclass
class EchoRecord:
    """One keystroke: when it was injected and when its echo landed."""

    key_time: float
    echo_drawn_time: Optional[float] = None

    @property
    def latency(self) -> Optional[float]:
        if self.echo_drawn_time is None:
            return None
        return self.echo_drawn_time - self.key_time


class TypingUnderLoadWorkload:
    """Types characters into an editor while bulk images stream.

    Every ``key_interval`` the user presses a key: input is injected at
    the cursor position and a small text-echo update is drawn there.
    Concurrently, every ``image_interval`` a large image block is
    drawn elsewhere (a photo loading, a compile log, ...).  The echo
    delivery time is observed through a caller-provided probe.
    """

    def __init__(self, ws: WindowServer, loop: EventLoop,
                 inject_input: Callable[[int, int], None],
                 keys: int = 20, key_interval: float = 0.15,
                 image_interval: float = 0.10,
                 image_size: int = 192):
        self.ws = ws
        self.loop = loop
        self.inject_input = inject_input
        self.keys = keys
        self.key_interval = key_interval
        self.image_interval = image_interval
        self.image_size = image_size
        self.rng = np.random.default_rng(7)
        self.cursor = (40, ws.screen.height - 40)
        self.records: List[EchoRecord] = []
        self._keys_sent = 0
        self._done = False

    def start(self) -> None:
        self.ws.fill_rect(self.ws.screen, self.ws.screen.bounds,
                          (250, 250, 250, 255))
        self.loop.schedule(0.01, self._bulk_tick)
        self.loop.schedule(0.02, self._key_tick)

    def _bulk_tick(self) -> None:
        if self._done:
            return
        size = self.image_size
        x = int(self.rng.integers(0, self.ws.screen.width - size))
        y = int(self.rng.integers(0, max(1, self.ws.screen.height
                                         - size - 80)))
        block = self.rng.integers(0, 256, (size, size, 4), dtype=np.uint8)
        self.ws.put_image(self.ws.screen, Rect(x, y, size, size), block)
        self.loop.schedule(self.image_interval, self._bulk_tick)

    def _key_tick(self) -> None:
        if self._keys_sent >= self.keys:
            self._done = True
            return
        record = EchoRecord(key_time=self.loop.now)
        self.records.append(record)
        cx, cy = self.cursor
        # Input first (the server marks the region real-time), then the
        # editor echoes the character next to the cursor.
        self.inject_input(cx, cy)
        ch = chr(ord("a") + self._keys_sent % 26)
        self.ws.draw_text(self.ws.screen, cx + 6 * (self._keys_sent % 30),
                          cy, ch, (10, 10, 10, 255))
        self._keys_sent += 1
        self.loop.schedule(self.key_interval, self._key_tick)

    def mark_echo_delivered(self, index: int, time: float) -> None:
        if self.records[index].echo_drawn_time is None:
            self.records[index].echo_drawn_time = time

    def latencies(self) -> List[float]:
        return [r.latency for r in self.records if r.latency is not None]
