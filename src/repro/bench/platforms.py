"""Uniform platform adapters for the benchmark testbed.

Every system under test — THINC and the seven baselines — is wrapped in
a :class:`Platform` exposing the same surface: a window server to drive
with application workloads, a client-input path, an audio sink, and the
client-side statistics slow-motion benchmarking reads.  The local PC is
handled analytically (:mod:`repro.baselines.localpc`) and has no
Platform.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..baselines import (ICA_AUDIO_COMPRESSION, MIN_VIEWPORT,
                         NX_SYNC_EVERY, RDP_AUDIO_COMPRESSION,
                         RELAY_EXTRA_RTT,
                         X_SYNC_EVERY, BaselineClient, ClientCosts,
                         ForwardServer, GoToMyPCEncoder, NXPricer,
                         OrdersPricer, ScrapeServer, SunRayEncoder,
                         VncEncoder, price_x_command)
from ..core import THINCClient, THINCServer
from ..display import WindowServer
from ..net import Connection, EventLoop, LinkParams, PacketMonitor

__all__ = ["Platform", "THINCPlatform", "VNCPlatform", "GoToMyPCPlatform",
           "SunRayPlatform", "XPlatform", "NXPlatform", "RDPPlatform",
           "ICAPlatform", "PLATFORMS", "make_platform"]

# Client-side scaling cost on a weak device, seconds per scaled pixel
# (the "CPU and bandwidth-limited environment of mobile devices"): a
# handheld-class CPU rescales roughly a megapixel per second, which is
# what collapses ICA's PDA video quality in Figure 5.
CLIENT_RESIZE_COST = 8e-7


class Platform:
    """Base adapter: owns the connection, window server and client."""

    name = "base"
    supports_audio = True
    supports_video = True
    color_depth = 24
    resize_model = "none"  # none | clip | client | server

    def __init__(self, loop: EventLoop, link: LinkParams,
                 monitor: Optional[PacketMonitor] = None,
                 width: int = 1024, height: int = 768,
                 viewport: Optional[Tuple[int, int]] = None,
                 wan_mode: bool = False,
                 send_buffer: Optional[int] = None):
        self.loop = loop
        self.link = self._effective_link(link)
        self.monitor = monitor if monitor is not None else PacketMonitor()
        self.width = width
        self.height = height
        self.viewport = self._effective_viewport(viewport)
        self.wan_mode = wan_mode
        self.connection = Connection(loop, self.link, monitor=self.monitor,
                                     send_buffer=send_buffer)
        self.window_server = WindowServer(width, height,
                                          driver=self._display_driver(),
                                          clock=loop.clock)
        self._build()

    # -- subclass hooks --------------------------------------------------------

    def _effective_link(self, link: LinkParams) -> LinkParams:
        return link

    def _effective_viewport(self, viewport):
        return viewport

    def _display_driver(self):
        """The window server's driver; None gives the stock one, whose
        screen the baselines scrape or forward from."""
        return None

    def _build(self) -> None:
        raise NotImplementedError

    # -- uniform surface -------------------------------------------------------

    def send_client_input(self, x: int, y: int) -> None:
        """A mouse click at (x, y) from the client."""
        raise NotImplementedError

    def set_input_handler(self, handler: Callable[[int, int], None]) -> None:
        raise NotImplementedError

    def submit_audio(self, timestamp: float, samples: bytes) -> None:
        """Audio sink; platforms without audio support drop the data."""

    # -- client statistics --------------------------------------------------------

    def bytes_transferred(self) -> int:
        return self.monitor.total_bytes()

    def last_update_time(self) -> float:
        raise NotImplementedError

    def client_processing_time(self) -> float:
        raise NotImplementedError

    def video_frames_received(self) -> int:
        raise NotImplementedError

    def video_frame_times(self) -> Tuple[Optional[float], Optional[float]]:
        raise NotImplementedError

    def audio_arrivals(self):
        return []

    def audio_chunks_received(self) -> int:
        return 0

    def video_arrivals(self, frame_interval: float):
        """Default: no per-frame timing (baseline clients track tags
        without per-frame history)."""
        return []


class THINCPlatform(Platform):
    """The system under study, wrapped for the testbed."""

    name = "THINC"
    resize_model = "server"

    def __init__(self, *args, headless: bool = True,
                 compress_raw: bool = True, offscreen_awareness: bool = True,
                 scheduler_factory=None, **kwargs):
        self._headless = headless
        self._thinc_opts = dict(compress_raw=compress_raw,
                                offscreen_awareness=offscreen_awareness)
        if scheduler_factory is not None:
            self._thinc_opts["scheduler_factory"] = scheduler_factory
        super().__init__(*args, **kwargs)

    def _display_driver(self):
        self.server = THINCServer(self.loop, self.width, self.height,
                                  **self._thinc_opts)
        return self.server.driver

    def _build(self) -> None:
        self.server.attach_client(self.connection, viewport=self.viewport)
        self.client = THINCClient(self.loop, self.connection,
                                  headless=self._headless)
        self._input_handler = None
        self.server.input_handler = self._dispatch_input

    def _dispatch_input(self, session, msg) -> None:
        from ..display.driver import InputEvent

        event = InputEvent(msg.kind, msg.x, msg.y, msg.time)
        self.window_server.inject_input(event)
        if self._input_handler is not None:
            self._input_handler(msg.x, msg.y)

    def send_client_input(self, x, y):
        self.client.send_input("mouse-click", x, y)

    def set_input_handler(self, handler):
        self._input_handler = handler

    def submit_audio(self, timestamp, samples):
        self.server.submit_audio(timestamp, samples)

    def last_update_time(self):
        return self.client.stats["last_update_time"]

    def client_processing_time(self):
        return self.client.stats["processing_time"]

    def video_frames_received(self):
        return sum(len({no for no, _ in v.arrivals})
                   for v in self.client.video_stats.values())

    def video_frame_times(self):
        streams = [v.arrivals for v in self.client.video_stats.values()
                   if v.arrivals]
        return (min(a[0][1] for a in streams) if streams else None,
                max(a[-1][1] for a in streams) if streams else None)

    def audio_arrivals(self):
        return self.client.audio.arrivals

    def audio_chunks_received(self):
        return len(self.client.audio.arrivals)

    def video_arrivals(self, frame_interval: float):
        """(server presentation time, arrival) pairs across streams."""
        out = []
        for stats in self.client.video_stats.values():
            out.extend(((no - 1) * frame_interval, t)
                       for no, t in stats.arrivals)
        return out


class _BaselinePlatform(Platform):
    """Common plumbing for the scrape/forward baselines."""

    audio_compression = 1.0
    pull = False
    client_costs: ClientCosts = ClientCosts()

    def send_client_input(self, x, y):
        self.client.send_input("mouse-click", x, y)

    def set_input_handler(self, handler):
        self.server.input_handler = handler

    def submit_audio(self, timestamp, samples):
        if self.supports_audio:
            self.server.submit_audio(timestamp, samples,
                                     self.audio_compression)

    def last_update_time(self):
        return self.client.stats["last_update_time"]

    def client_processing_time(self):
        return self.client.stats["processing_time"]

    def video_frames_received(self):
        return len(self.client.video_frames_seen)

    def video_frame_times(self):
        return (self.client.first_video_frame_time,
                self.client.last_video_frame_time)

    def audio_arrivals(self):
        return self.client.audio_arrivals

    def audio_chunks_received(self):
        return self.client.stats["audio_chunks"]

    def _make_client(self) -> BaselineClient:
        costs = self.client_costs
        if self.resize_model == "client" and self.viewport is not None:
            costs = ClientCosts(per_byte=costs.per_byte,
                                per_pixel=costs.per_pixel,
                                per_resize_pixel=CLIENT_RESIZE_COST,
                                fixed=costs.fixed)
        return BaselineClient(self.loop, self.connection, pull=self.pull,
                              costs=costs)


class VNCPlatform(_BaselinePlatform):
    """VNC 4.0: client-pull screen scraping, no audio, viewport clip."""

    name = "VNC"
    supports_audio = False
    pull = True
    resize_model = "clip"

    def _build(self):
        # The clip model does not reduce data in practice: the user must
        # scroll the viewport across the whole session to read it, so
        # every update is eventually transferred at full resolution.
        self.server = ScrapeServer(
            self.loop, self.connection, self.window_server,
            encoder=VncEncoder(adaptive=self.wan_mode), pull=True,
            viewport=self.viewport, resize_mode="none")
        self.client = self._make_client()


class GoToMyPCPlatform(_BaselinePlatform):
    """GoToMyPC 4.1: relay-routed, 8-bit, heavy compression, pull."""

    name = "GoToMyPC"
    supports_audio = False
    color_depth = 8
    pull = True
    resize_model = "client"
    # Heavy client-side decompression.
    client_costs = ClientCosts(per_byte=1.2e-7, per_pixel=6e-9)

    def _effective_link(self, link: LinkParams) -> LinkParams:
        return link.with_relay(RELAY_EXTRA_RTT)

    def _effective_viewport(self, viewport):
        if viewport is None:
            return None
        return (max(viewport[0], MIN_VIEWPORT[0]),
                max(viewport[1], MIN_VIEWPORT[1]))

    def _build(self):
        self.server = ScrapeServer(
            self.loop, self.connection, self.window_server,
            encoder=GoToMyPCEncoder(), pull=True, color_depth=8,
            viewport=self.viewport, resize_mode="none")
        self.client = self._make_client()


class SunRayPlatform(_BaselinePlatform):
    """Sun Ray 3.0: push, low-level commands inferred from pixels."""

    name = "SunRay"
    resize_model = "none"

    def _build(self):
        self.server = ScrapeServer(
            self.loop, self.connection, self.window_server,
            encoder=SunRayEncoder(adaptive=self.wan_mode), pull=False)
        self.client = self._make_client()


class XPlatform(_BaselinePlatform):
    """X11/XFree86 4.3 over ssh -C, aRts remote audio."""

    name = "X"
    resize_model = "none"

    def _build(self):
        self.server = ForwardServer(
            self.loop, self.connection, self.window_server,
            price=price_x_command, sync_every=X_SYNC_EVERY,
            forward_offscreen=True)
        self.client = self._make_client()


class NXPlatform(_BaselinePlatform):
    """NX 1.4: X proxying with compression and round-trip suppression."""

    name = "NX"
    resize_model = "none"

    def _build(self):
        self.server = ForwardServer(
            self.loop, self.connection, self.window_server,
            price=NXPricer(wan_mode=self.wan_mode),
            sync_every=NX_SYNC_EVERY, forward_offscreen=True)
        self.client = self._make_client()


class RDPPlatform(_BaselinePlatform):
    """Microsoft RDP 5.2: graphics orders, compressed audio, clipping."""

    name = "RDP"
    resize_model = "clip"
    audio_compression = RDP_AUDIO_COMPRESSION

    def _build(self):
        self.server = ForwardServer(
            self.loop, self.connection, self.window_server,
            price=OrdersPricer("rdp", wan_mode=self.wan_mode),
            viewport=self.viewport,
            resize_mode="clip" if self.viewport else "none")
        self.client = self._make_client()


class ICAPlatform(_BaselinePlatform):
    """Citrix MetaFrame XP (ICA): orders + client-side resizing."""

    name = "ICA"
    resize_model = "client"
    audio_compression = ICA_AUDIO_COMPRESSION

    def _build(self):
        self.server = ForwardServer(
            self.loop, self.connection, self.window_server,
            price=OrdersPricer("ica", wan_mode=self.wan_mode))
        self.client = self._make_client()


PLATFORMS: Dict[str, type] = {
    "THINC": THINCPlatform,
    "VNC": VNCPlatform,
    "GoToMyPC": GoToMyPCPlatform,
    "SunRay": SunRayPlatform,
    "X": XPlatform,
    "NX": NXPlatform,
    "RDP": RDPPlatform,
    "ICA": ICAPlatform,
}


def make_platform(name: str, loop: EventLoop, link: LinkParams,
                  **kwargs) -> Platform:
    """Instantiate a platform by its paper name."""
    try:
        cls = PLATFORMS[name]
    except KeyError:
        raise ValueError(
            f"unknown platform {name!r}; known: {sorted(PLATFORMS)}"
        ) from None
    return cls(loop, link, **kwargs)
