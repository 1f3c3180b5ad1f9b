"""Shared machinery for the baseline thin-client systems.

The paper compares THINC against seven commercial/open systems
(Section 8).  Each baseline here is a behavioural model built from the
architectural properties the paper attributes to it — where display
commands are intercepted, what travels on the wire, push vs pull, and
where resizing runs.  Two families cover all of them:

* **screen scrapers** (:class:`ScrapeServer`): intercept nothing but
  final pixels.  A damage region accumulates; at send time the server
  reads the *current* framebuffer content under the damage and encodes
  it — which is precisely why scrapers drop video frames for free but
  must compress bulk pixels for everything (VNC, GoToMyPC, and Sun
  Ray's no-translation pixel path).
* **command forwarders** (:class:`ForwardServer`): intercept
  application-level display commands and re-encode them in a remote
  protocol (X, NX, RDP, ICA).  Costs are computed from the *actual*
  command payloads; synchronous round trips model X's client/server
  chatter.

Baseline clients account bytes, timing, video-frame delivery (updates
are tagged with the video frame that produced them) and modelled client
processing time.  They do not maintain a pixel-exact framebuffer — the
paper measured the closed systems from network traces, and so do we.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from ..display.driver import DisplayDriver
from ..display.xserver import AppCommand, WindowServer
from ..net.clock import EventLoop
from ..net.transport import Connection
from ..region import Rect, Region

__all__ = ["Encoder", "EncodedUpdate", "UpdateWire", "BaselineClient",
           "ScrapeServer", "ForwardServer", "quantize_8bit",
           "FLUSH_INTERVAL"]

FLUSH_INTERVAL = 0.002
# Encoded bytes one screen-scrape update burst may carry.
_MAX_UPDATE_BYTES = 1 << 20

_UPDATE = struct.Struct(">BHHHHII")  # kind, rect, frame_tag, payload_len

KIND_PIXELS = 1
KIND_COMMAND = 2
KIND_AUDIO = 3
KIND_INPUT = 4
KIND_REQUEST = 5


def quantize_8bit(pixels: np.ndarray) -> np.ndarray:
    """Reduce RGBA to a 3-3-2 palette (GoToMyPC's 8-bit colour)."""
    q = pixels.copy()
    q[..., 0] &= 0xE0
    q[..., 1] &= 0xE0
    q[..., 2] &= 0xC0
    q[..., 3] = 255
    return q


class Encoder:
    """Turns a pixel block into wire bytes; pluggable per system."""

    name = "raw"

    def encode_size(self, pixels: np.ndarray) -> int:
        """Bytes this encoder produces for the block."""
        return int(pixels.nbytes)

    def cpu_cost(self, pixels: np.ndarray) -> float:
        """Server CPU seconds consumed encoding the block."""
        return 0.0


@dataclass
class EncodedUpdate:
    """One display update ready for the wire."""

    rect: Rect
    payload: int  # encoded payload size in bytes
    frame_tag: int = 0  # video frame that produced it (0 = not video)
    kind: int = KIND_PIXELS

    def wire_bytes(self) -> bytes:
        header = _UPDATE.pack(self.kind, *self.rect.as_tuple(),
                              self.frame_tag, self.payload)
        return header + b"\x00" * self.payload

    def wire_size(self) -> int:
        return _UPDATE.size + self.payload


class UpdateWire:
    """Incremental parser for the baseline wire format."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, chunk: bytes) -> List[Tuple[int, Rect, int, int]]:
        self._buf.extend(chunk)
        out = []
        offset = 0
        while True:
            if offset + _UPDATE.size > len(self._buf):
                break
            kind, x, y, w, h, tag, plen = _UPDATE.unpack_from(self._buf,
                                                              offset)
            end = offset + _UPDATE.size + plen
            if end > len(self._buf):
                break
            out.append((kind, Rect(x, y, w, h), tag, plen))
            offset = end
        del self._buf[:offset]
        return out


@dataclass
class ClientCosts:
    """Client processing model for a baseline platform."""

    per_byte: float = 3e-8  # parse + decompress
    per_pixel: float = 3e-9  # draw
    per_resize_pixel: float = 0.0  # client-side resize work (ICA, GoToMyPC)
    fixed: float = 2e-6


class BaselineClient:
    """Accounts received updates; optionally drives a pull loop."""

    def __init__(self, loop: EventLoop, connection: Connection,
                 pull: bool = False, costs: Optional[ClientCosts] = None):
        self.loop = loop
        self.connection = connection
        self.pull = pull
        self.costs = costs or ClientCosts()
        self.wire = UpdateWire()
        self.stats = {
            "bytes_received": 0,
            "updates": 0,
            "last_update_time": 0.0,
            "processing_time": 0.0,
            "audio_chunks": 0,
        }
        self.audio_arrivals: List[Tuple[float, float]] = []
        self.video_frames_seen: set = set()
        self.last_video_frame_time: Optional[float] = None
        self.first_video_frame_time: Optional[float] = None
        connection.down.connect(self._on_data)
        if pull:
            self._request_updates()

    # -- client-to-server ---------------------------------------------------

    def _request_updates(self) -> None:
        msg = _UPDATE.pack(KIND_REQUEST, 0, 0, 0, 0, 0, 0)
        if len(msg) <= self.connection.up.writable_bytes():
            self.connection.up.write(msg)

    def send_input(self, kind: str, x: int, y: int) -> None:
        # width/height of 1: an empty rect would canonicalise away x/y.
        msg = _UPDATE.pack(KIND_INPUT, x, y, 1, 1, 0, 0)
        self.connection.up.write(msg)

    # -- receive path ----------------------------------------------------------

    def _on_data(self, chunk: bytes) -> None:
        self.stats["bytes_received"] += len(chunk)
        got_update = False
        for kind, rect, tag, plen in self.wire.feed(chunk):
            now = self.loop.now
            if kind == KIND_AUDIO:
                self.stats["audio_chunks"] += 1
                # tag carries the server timestamp in microseconds.
                self.audio_arrivals.append((tag / 1e6, now))
                continue
            self.stats["updates"] += 1
            self.stats["last_update_time"] = now
            npixels = rect.area
            cost = (self.costs.fixed + plen * self.costs.per_byte
                    + npixels * self.costs.per_pixel
                    + npixels * self.costs.per_resize_pixel)
            self.stats["processing_time"] += cost
            if tag:
                self.video_frames_seen.add(tag)
                if self.first_video_frame_time is None:
                    self.first_video_frame_time = now
                self.last_video_frame_time = now
            got_update = True
        if got_update and self.pull:
            # Client-pull: ask for the next update only after receiving
            # this one — the round trip the paper blames for VNC's WAN
            # video collapse.
            self._request_updates()

    # -- analysis ------------------------------------------------------------

    def done_time_with_processing(self) -> float:
        return self.stats["last_update_time"] + self.stats["processing_time"]


class _ServerCore:
    """Common flush scheduling + upstream parsing for baseline servers."""

    def __init__(self, loop: EventLoop, connection: Connection):
        self.loop = loop
        self.connection = connection
        self._outbox: Deque[bytes] = deque()
        self._flush_scheduled = False
        self.bytes_sent = 0
        self.server_cpu_time = 0.0
        # Encoding is not free: a single server CPU pipeline serialises
        # compression work, so expensive codecs delay output (the
        # GoToMyPC effect of Figure 2).
        self._cpu_free_at = 0.0
        self.input_handler: Optional[Callable] = None
        self._upstream = UpdateWire()
        connection.up.connect(self._on_upstream)

    def charge_cpu(self, seconds: float) -> float:
        """Account CPU work; returns the completion time of the job."""
        start = max(self.loop.now, self._cpu_free_at)
        self._cpu_free_at = start + seconds
        self.server_cpu_time += seconds
        return self._cpu_free_at

    def enqueue_after_cpu(self, data: bytes, cpu: float) -> None:
        """Enqueue wire data once the server CPU has produced it."""
        done = self.charge_cpu(cpu)
        delay = done - self.loop.now
        if delay <= 0:
            self.enqueue(data)
        else:
            self.loop.schedule(delay, lambda: self.enqueue(data))

    def _on_upstream(self, chunk: bytes) -> None:
        for kind, rect, tag, plen in self._upstream.feed(chunk):
            if kind == KIND_INPUT:
                if self.input_handler is not None:
                    self.input_handler(rect.x, rect.y)
            elif kind == KIND_REQUEST:
                self.on_update_request()

    def on_update_request(self) -> None:
        """Pull-mode hook; push-mode servers ignore requests."""

    def enqueue(self, data: bytes) -> None:
        self._outbox.append(data)
        self.kick()

    def kick(self) -> None:
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.loop.schedule(0.0, self._flush)

    def _flush(self) -> None:
        self._flush_scheduled = False
        writer = self.connection.down
        self.fill_outbox(writer.writable_bytes() - self._outbox_bytes())
        while self._outbox:
            data = self._outbox[0]
            room = writer.writable_bytes()
            if len(data) > room:
                if room > 64:
                    # Ship a prefix; baselines account bytes, not pixels.
                    writer.write(data[:room])
                    self._outbox[0] = data[room:]
                    self.bytes_sent += room
                break
            writer.write(data)
            self._outbox.popleft()
            self.bytes_sent += len(data)
        if self._outbox or self.has_pending():
            self._flush_scheduled = True
            self.loop.schedule(FLUSH_INTERVAL, self._flush)

    def _outbox_bytes(self) -> int:
        return sum(len(d) for d in self._outbox)

    def fill_outbox(self, budget: int) -> None:
        """Subclass hook: move pending work into the outbox."""

    def has_pending(self) -> bool:
        return False

    def submit_audio(self, timestamp: float, samples: bytes,
                     compression_factor: float = 1.0) -> None:
        """Ship an audio chunk (systems without audio never call this)."""
        payload = max(1, int(len(samples) * compression_factor))
        header = _UPDATE.pack(KIND_AUDIO, 0, 0, 0, 0,
                              min(int(timestamp * 1e6), 0xFFFFFFFF), payload)
        self.enqueue(header + b"\x00" * payload)


class ScrapeServer(_ServerCore):
    """A damage-driven pixel server (the screen-scraping family).

    The window server is observed only through a damage listener: every
    onscreen change adds its rectangle to the damage region.  When the
    server sends (push mode: continuously; pull mode: on request), it
    reads the *current* pixels under the damage from the server
    framebuffer, encodes them, and clears the damage.  Stale content is
    therefore never transmitted — and neither is any drawing semantics.
    """

    def __init__(self, loop: EventLoop, connection: Connection,
                 window_server: WindowServer, encoder: Encoder,
                 pull: bool = False, color_depth: int = 24,
                 viewport: Optional[Tuple[int, int]] = None,
                 resize_mode: str = "none"):
        super().__init__(loop, connection)
        self.ws = window_server
        self.encoder = encoder
        self.pull = pull
        self.color_depth = color_depth
        self.viewport = viewport
        self.resize_mode = resize_mode  # "none" | "clip" | "server" | "client"
        self.damage = Region()
        self._damage_tags: Dict[Tuple[int, int, int, int], int] = {}
        self._request_outstanding = not pull  # push: always allowed
        window_server.add_listener(self)
        window_server.driver = _DamageTap(self)

    # -- damage capture (driver level, semantics discarded) ---------------------

    def add_damage(self, rect: Rect, frame_tag: int = 0) -> None:
        if self.resize_mode == "clip" and self.viewport is not None:
            rect = rect.intersect(Rect(0, 0, *self.viewport))
        if rect.empty:
            return
        self.damage.add(rect)
        if frame_tag:
            self._damage_tags[rect.as_tuple()] = frame_tag
        self.kick()

    def on_app_command(self, command: AppCommand) -> None:
        # Scrapers see nothing at the app level; damage comes from the
        # driver tap.  (Listener registration keeps op counters honest.)

        return

    # -- sending ----------------------------------------------------------------

    def on_update_request(self) -> None:
        self._request_outstanding = True
        self.kick()

    def has_pending(self) -> bool:
        return bool(self.damage) and self._request_outstanding

    def fill_outbox(self, budget: int) -> None:
        if not self._request_outstanding or self.damage.is_empty:
            return
        if budget <= 0:
            return
        if self._outbox_bytes() > 0:
            # One update burst at a time: re-encoding the (refreshed)
            # damage while the previous encoding still drains would put
            # the same screen area on the wire twice.
            return
        sent_any = False
        remaining = Region()
        consumed = 0
        for rect in list(self.damage):
            if consumed >= budget or consumed >= _MAX_UPDATE_BYTES:
                remaining.add(rect)
                continue
            update, cpu = self._encode_rect(rect)
            done = self.charge_cpu(cpu)
            delay = done - self.loop.now
            if delay <= 0:
                self.enqueue_update(update)
            else:
                self.loop.schedule(
                    delay, lambda u=update: self.enqueue_update(u) or
                    self.kick())
            consumed += update.wire_size()
            sent_any = True
        self.damage = remaining
        if sent_any and self.pull:
            # One update burst per request.
            self._request_outstanding = False

    def enqueue_update(self, update: EncodedUpdate) -> None:
        self._outbox.append(update.wire_bytes())

    def _encode_rect(self, rect: Rect):
        pixels = self.ws.screen.fb.read_pixels(rect)
        if self.color_depth == 8:
            pixels = quantize_8bit(pixels)
        out_rect = rect
        if self.resize_mode == "server" and self.viewport is not None:
            from ..core.resize import resample, scale_rect

            sx = self.viewport[0] / self.ws.screen.width
            sy = self.viewport[1] / self.ws.screen.height
            out_rect = scale_rect(rect, sx, sy)
            pixels = resample(pixels, out_rect.width, out_rect.height)
        payload = self.encoder.encode_size(pixels)
        cpu = self.encoder.cpu_cost(pixels)
        tag = self._damage_tags.pop(rect.as_tuple(), 0)
        if not tag:
            # A damage fragment inside a video area inherits its tag.
            for key, value in list(self._damage_tags.items()):
                if Rect(*key).contains(rect):
                    tag = value
                    break
        return EncodedUpdate(out_rect, payload, frame_tag=tag), cpu


class _DamageTap(DisplayDriver):
    """A DisplayDriver that converts driver calls into damage (text:
    one rect per glyph, through the inherited ``glyph_run``)."""

    def __init__(self, server: ScrapeServer):
        self.server = server

    def _dmg(self, drawable, rect):
        if drawable.onscreen and rect:
            self.server.add_damage(rect)

    def solid_fill(self, drawable, rect, color):
        self._dmg(drawable, rect)

    def pattern_fill(self, drawable, rect, tile, origin):
        self._dmg(drawable, rect)

    def bitmap_fill(self, drawable, rect, mask, fg, bg):
        self._dmg(drawable, rect)

    def put_image(self, drawable, rect, pixels):
        self._dmg(drawable, rect)

    def composite(self, drawable, rect, pixels, operator):
        self._dmg(drawable, rect)

    def copy_area(self, src, dst, src_rect, dst_x, dst_y):
        if dst.onscreen:
            self.server.add_damage(Rect(dst_x, dst_y, src_rect.width,
                                        src_rect.height))

    def video_put(self, stream, yuv_planes, dst_rect):
        # Scrapers cannot distinguish video from ordinary updates
        # (the paper's point); the tag exists only for *measurement*.
        self.server.add_damage(dst_rect, frame_tag=stream.frames_put)


class ForwardServer(_ServerCore):
    """A command-forwarding server (X / NX / RDP / ICA family).

    Intercepts application-level display commands from the window
    server, prices each in its remote protocol, and pushes them.  A
    ``sync_every`` of N injects a synchronous round trip after every N
    commands — the client/server coupling that hurts X in WANs.
    """

    def __init__(self, loop: EventLoop, connection: Connection,
                 window_server: WindowServer,
                 price: Callable[[AppCommand, "ForwardServer"], Tuple[int, float]],
                 sync_every: int = 0,
                 viewport: Optional[Tuple[int, int]] = None,
                 resize_mode: str = "none",
                 forward_offscreen: bool = False):
        super().__init__(loop, connection)
        self.ws = window_server
        self.price = price
        self.sync_every = sync_every
        self.viewport = viewport
        self.resize_mode = resize_mode
        # X-family protocols run the window server on the client, so
        # offscreen drawing crosses the network too; GDI-order systems
        # (RDP/ICA) see only what reaches the screen.
        self.forward_offscreen = forward_offscreen
        self._since_sync = 0
        self._sync_until = 0.0
        self.commands_seen = 0
        self.sync_round_trips = 0
        window_server.add_listener(self)

    def on_app_command(self, command: AppCommand) -> None:
        if command.rect.empty:
            return
        if not command.onscreen and not self.forward_offscreen:
            return
        if self.resize_mode == "clip" and self.viewport is not None \
                and command.onscreen:
            if not command.rect.overlaps(Rect(0, 0, *self.viewport)):
                return
        self.commands_seen += 1
        payload, cpu = self.price(command, self)
        payload = max(1, payload)
        tag = 0
        if command.name == "video_put":
            tag = self.ws.video_streams[command.payload].frames_put
        update = EncodedUpdate(command.rect, payload, frame_tag=tag,
                               kind=KIND_COMMAND)
        self._enqueue_with_sync(update, cpu)

    def _enqueue_with_sync(self, update: EncodedUpdate,
                           cpu: float = 0.0) -> None:
        data = update.wire_bytes()
        if self.sync_every:
            self._since_sync += 1
            if self._since_sync >= self.sync_every:
                self._since_sync = 0
                self.sync_round_trips += 1
                # A synchronous request: the server-side library blocks
                # for a full RTT before issuing further output.
                delay = max(self._sync_until - self.loop.now, 0.0)
                self._sync_until = (self.loop.now + delay
                                    + self.connection.link.effective_rtt)
                self.charge_cpu(cpu)
                self.loop.schedule(delay + self.connection.link.effective_rtt,
                                   lambda d=data: self.enqueue(d))
                return
        self.enqueue_after_cpu(data, cpu)
