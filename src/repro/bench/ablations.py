"""The design choices the paper credits, isolated, and its side
experiments — each runner returns data, prints nothing and is memoised
like (and reuses, where a variant *is* one) the figure runs of
:mod:`.experiments`; :mod:`.claims` reads them.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Tuple

from ..audio.sync import audio_quality, playback_quality
from ..baselines import BaselineClient, ScrapeServer
from ..baselines.vnc import VncEncoder
from ..core import THINCClient, THINCServer
from ..core.scheduler import FIFOScheduler
from ..display import WindowServer
from ..net import (LAN_DESKTOP, PDA_80211G, Connection, EventLoop,
                   LinkParams, PacketMonitor)
from ..region import Rect
from ..video.stream import SyntheticVideoClip
from ..workloads.terminal import TerminalApp
from ..workloads.video import AVPlayerApp
from ..workloads.web import WebBrowserApp, make_page_set
from .experiments import PDA_VIEWPORT, av_run, memoised, web_run
from .platforms import CLIENT_RESIZE_COST, make_platform
from .sites import REMOTE_SITES, site_link
from .slowmotion import AVRunResult, WebRunResult
from .testbed import (TypingRunResult, run_av_benchmark, run_typing_benchmark,
                      run_web_benchmark)

LAN, PDA = "LAN Desktop", "802.11g PDA"
FRAMES = 96  # video frames of the side runs
DSL = LinkParams("dsl", bandwidth_bps=8e6, rtt=0.030)
LOSS_RATES = (0.0, 0.01, 0.03, 0.08)
SCROLL_REGION = Rect(40, 40, 560, 400)
BUILD_LOG = [f"[{i:03d}/120] compiling module_{i:03d}.c ... ok"
             for i in range(120)]


@memoised
def offscreen(page_count: int) -> Tuple[WebRunResult, WebRunResult]:
    """THINC on the LAN with offscreen awareness on, then off."""
    return (web_run("THINC", LAN, page_count),
            run_web_benchmark("THINC", LAN_DESKTOP, "offscreen off",
                              page_count=page_count,
                              offscreen_awareness=False))


@memoised
def compression(page_count: int) -> Dict[Tuple[str, bool], WebRunResult]:
    """THINC web runs keyed (``"LAN"`` / 8 Mbit/s ``"DSL"``, RAW on)."""
    runs = {("LAN", True): web_run("THINC", LAN, page_count),
            ("DSL", True): run_web_benchmark("THINC", DSL, "DSL",
                                             page_count=page_count)}
    for label, link in (("LAN", LAN_DESKTOP), ("DSL", DSL)):
        runs[(label, False)] = run_web_benchmark(
            "THINC", link, label, page_count=page_count, compress_raw=False)
    return runs


@memoised
def resize(page_count: int) -> Dict[str, object]:
    """THINC on the PDA link resizing on the server, or sending full-size
    updates (and page latency plus the handheld's full-screen scaling)."""
    client_web = run_web_benchmark("THINC", PDA_80211G, "client-resize",
                                   page_count=page_count)
    return {"server_web": web_run("THINC", PDA, page_count),
            "client_web": client_web,
            "server_av": av_run("THINC", PDA, FRAMES),
            "client_av": run_av_benchmark("THINC", PDA_80211G, "client",
                                          max_frames=FRAMES),
            "client_latency": client_web.mean_latency
            + 1024 * 768 * CLIENT_RESIZE_COST}


@memoised
def scheduler() -> Tuple[TypingRunResult, TypingRunResult]:
    """Typing under a bulk image load, SRSF then FIFO."""
    link = replace(DSL, tcp_window=256 * 1024)
    return (run_typing_benchmark(link, keys=15),
            run_typing_benchmark(link, scheduler_factory=FIFOScheduler,
                                 keys=15))


@memoised
def scraped_video(pull: bool) -> float:
    """VNC-style video quality over a 200 ms path, push or pull."""
    loop = EventLoop()
    conn = Connection(loop, LinkParams("satellite", bandwidth_bps=100e6,
                                       rtt=0.200), monitor=PacketMonitor())
    ws = WindowServer(640, 480, clock=loop.clock)
    ScrapeServer(loop, conn, ws, encoder=VncEncoder(), pull=pull)
    client = BaselineClient(loop, conn, pull=pull)
    # Native size: the scraped update rate fits the link, so any gap in
    # quality is the delivery model alone.
    player = AVPlayerApp(ws, loop, SyntheticVideoClip(
        width=320, height=240, fps=24, duration=4.0), fullscreen=False,
        dst_rect=Rect(0, 0, 320, 240), max_frames=FRAMES)
    player.start()
    loop.run_until_idle(max_time=120)
    last = client.last_video_frame_time or player.ideal_duration
    return playback_quality(len(client.video_frames_seen), FRAMES,
                            player.ideal_duration,
                            max(last - player.started_at, 0.01))


@memoised
def wireless() -> Dict[object, AVRunResult]:
    """THINC PDA video on 802.11g (``"11g"``), 802.11b at each loss."""
    wifi_b = LinkParams("802.11b", bandwidth_bps=5.5e6, rtt=0.020)
    runs = {"11g": av_run("THINC", PDA, FRAMES)}
    for loss in LOSS_RATES:
        runs[loss] = run_av_benchmark(
            "THINC", wifi_b.with_loss(loss) if loss else wifi_b,
            f"802.11b loss={loss:g}", max_frames=FRAMES,
            viewport=PDA_VIEWPORT)
    return runs


@memoised
def korea_window(max_frames: int) -> AVRunResult:
    """THINC A/V from the Korea site with its window raised to 1 MB."""
    kr = next(site for site in REMOTE_SITES if site.code == "KR")
    return run_av_benchmark("THINC", replace(site_link(kr),
                                             tcp_window=1 << 20),
                            "KR-wide", max_frames=max_frames)


@memoised
def audio_only(name: str) -> float:
    """Quality of the clip's audio track played alone on the LAN."""
    loop = EventLoop()
    platform = make_platform(name, loop, LAN_DESKTOP,
                             monitor=PacketMonitor())
    clip = SyntheticVideoClip(width=32, height=24, fps=24,
                              duration=FRAMES / 24)
    player = AVPlayerApp(platform.window_server, loop, clip,
                         audio_sink=platform, max_frames=FRAMES)

    def put(index):  # the player's frame tick, audio only
        if index >= player.max_frames:
            player.audio.drain()
            player.ws.video_destroy_stream(player.stream)
            player.finished_at = loop.now
            return
        player.audio.play(player._audio_block)
        player.frames_put += 1
        loop.schedule(clip.frame_interval, lambda: put(index + 1))

    player._put_frame = put
    player.start()
    loop.run_until_idle(max_time=120)
    return audio_quality(platform.audio_arrivals(),
                         player.audio.chunks_emitted or 1,
                         player.ideal_duration)


@memoised
def page_breakdown(page_count: int) -> Tuple[List[bool], Dict]:
    """Which pages (at least nine) are one image; per-page latencies."""
    count = max(page_count, 9)
    return ([page.image_heavy for page in make_page_set(count=count)],
            {name: [p.latency for p in web_run(name, LAN, count).pages]
             for name in ("THINC", "VNC", "SunRay")})


@memoised
def scroll_bytes(name: str) -> int:
    """Downstream bytes of a 120-line scrolling build log on *name*."""
    loop = EventLoop()
    monitor = PacketMonitor()
    platform = make_platform(name, loop, LAN_DESKTOP, monitor=monitor,
                             width=640, height=480)
    TerminalApp(platform.window_server, loop, SCROLL_REGION).run_output(
        BUILD_LOG, 0.02)
    loop.run_until_idle(max_time=120)
    return monitor.total_bytes("server->client")


@memoised
def shared_session(n_clients: int) -> Dict[str, float]:
    """Four pages shared by *n_clients*: bytes, page time, server stats."""
    loop = EventLoop()
    monitor = PacketMonitor()
    server = THINCServer(loop, 1024, 768)
    ws = WindowServer(1024, 768, driver=server.driver, clock=loop.clock)
    for _ in range(n_clients):
        conn = Connection(loop, LAN_DESKTOP, monitor=monitor)
        server.attach_client(conn)
        THINCClient(loop, conn, headless=True)
    browser = WebBrowserApp(ws, make_page_set(count=4))
    elapsed = 0.0
    for index in range(4):
        start = loop.now
        browser.render_page(index)
        loop.run_until_idle(max_time=start + 30)
        elapsed += loop.now - start
    return {"bytes": monitor.total_bytes("server->client"),
            "latency": elapsed / 4, **server.stats}
