"""The experiment testbed: runs workloads over platforms and networks.

Mirrors the paper's isolated testbed (Figure 1): a thin-client server,
a client, a network emulator between them and a packet monitor watching
the wire.  ``run_web_benchmark`` reproduces the i-Bench methodology —
a mechanically timed click loads each page, with enough idle time
between pages to separate them in the trace — and ``run_av_benchmark``
plays the A/V clip and scores it with slow-motion quality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..audio.sync import audio_quality, av_sync_skew
from ..core.scheduler import SRSFScheduler
from ..display.xserver import IMAGE_CHUNK_ROWS
from ..net import EventLoop, LinkParams, PacketMonitor
from ..video.stream import BENCHMARK_CLIP, SyntheticVideoClip
from ..workloads.video import AVPlayerApp
from ..workloads.web import WebBrowserApp, make_page_set
from .platforms import make_platform
from .slowmotion import AVRunResult, WebRunResult, measure_page

__all__ = ["run_web_benchmark", "run_av_benchmark", "run_typing_benchmark",
           "TypingRunResult",
           "WEB_PDA_PLATFORMS", "AV_PLATFORMS", "WEB_PLATFORMS"]

# Platforms measured in each figure (Section 8.3): only these support a
# client display geometry different from the server's.
WEB_PLATFORMS = ["THINC", "X", "NX", "VNC", "SunRay", "RDP", "ICA",
                 "GoToMyPC"]
WEB_PDA_PLATFORMS = ["THINC", "VNC", "RDP", "ICA", "GoToMyPC"]
AV_PLATFORMS = ["THINC", "X", "NX", "VNC", "SunRay", "RDP", "ICA",
                "GoToMyPC"]

# Idle separation between page loads, enough for every system to drain.
PAGE_GAP = 0.75
# Safety bound per page in simulated seconds.
PAGE_DEADLINE = 30.0


def run_web_benchmark(platform_name: str, link: LinkParams,
                      network_label: str = "",
                      page_count: int = 54,
                      width: int = 1024, height: int = 768,
                      viewport: Optional[Tuple[int, int]] = None,
                      wan_mode: bool = False,
                      **platform_kwargs) -> WebRunResult:
    """Run the web page-load benchmark for one platform/network pair.

    Extra keyword arguments reach the platform constructor — the
    ablation benches use this to toggle THINC features.
    """
    loop = EventLoop()
    monitor = PacketMonitor()
    platform = make_platform(platform_name, loop, link, monitor=monitor,
                             width=width, height=height, viewport=viewport,
                             wan_mode=wan_mode, **platform_kwargs)
    pages = make_page_set(count=page_count, width=width, height=height)
    browser = WebBrowserApp(platform.window_server, pages)

    # The browser reacts to a click by loading the next page after its
    # server-side processing time.
    state = {"next_page": 0}

    def on_input(x: int, y: int) -> None:
        index = state["next_page"]
        if index >= len(pages):
            return
        state["next_page"] = index + 1
        delay = browser.processing_delay(pages[index])
        loop.schedule(delay, lambda: browser.render_page(index))

    platform.set_input_handler(on_input)

    result = WebRunResult(platform=platform.name, network=network_label)
    for index in range(page_count):
        click_time = loop.now + PAGE_GAP
        monitor.mark(click_time, f"page-{index}")
        link_x, link_y = browser.link_position(max(index - 1, 0))
        processing_before = platform.client_processing_time()
        loop.schedule_at(
            click_time,
            lambda x=link_x, y=link_y: platform.send_client_input(x, y))
        loop.run_until_idle(max_time=click_time + PAGE_DEADLINE)
        processing_delta = (platform.client_processing_time()
                            - processing_before)
        result.pages.append(measure_page(
            monitor, index, click_time, loop.now, processing_delta))
    return result


def run_av_benchmark(platform_name: str, link: LinkParams,
                     network_label: str = "",
                     width: int = 1024, height: int = 768,
                     viewport: Optional[Tuple[int, int]] = None,
                     wan_mode: bool = False,
                     max_frames: Optional[int] = None,
                     clip: Optional[SyntheticVideoClip] = None,
                     **platform_kwargs) -> AVRunResult:
    """Run the A/V playback benchmark for one platform/network pair.

    ``max_frames`` truncates the clip for faster runs; byte totals are
    extrapolated back to the full clip (playback is steady-state), and
    quality is computed over the truncated run directly.
    """
    loop = EventLoop()
    monitor = PacketMonitor()
    platform = make_platform(platform_name, loop, link, monitor=monitor,
                             width=width, height=height, viewport=viewport,
                             wan_mode=wan_mode, **platform_kwargs)
    clip = clip or BENCHMARK_CLIP()
    audio_sink = platform if platform.supports_audio else None
    player = AVPlayerApp(platform.window_server, loop, clip,
                         audio_sink=audio_sink, max_frames=max_frames)
    player.start()
    # Generously bounded: systems at a few percent quality stretch the
    # run by more than an order of magnitude.
    deadline = player.ideal_duration * 40 + 60
    loop.run_until_idle(max_time=deadline)

    first, last = platform.video_frame_times()
    if first is None or last is None:
        actual = player.ideal_duration
    else:
        actual = max(last - player.started_at, player.ideal_duration * 0.01)
    # Playback quality includes the client's own processing (decoding,
    # drawing, any client-side rescaling) — the paper's point about
    # ICA's PDA client being unable to keep up.  Client work overlaps
    # delivery, so it stretches playback only when it is the bottleneck.
    actual = max(actual, platform.client_processing_time())
    frames_received = platform.video_frames_received()
    if platform.supports_audio and player.audio is not None \
            and player.audio.chunks_emitted:
        aq = audio_quality(platform.audio_arrivals(),
                           player.audio.chunks_emitted,
                           player.ideal_duration)
    else:
        aq = 0.0
    skew = None
    video_arrivals = platform.video_arrivals(clip.frame_interval)
    if platform.supports_audio and video_arrivals \
            and platform.audio_arrivals():
        skew = av_sync_skew(platform.audio_arrivals(), video_arrivals)
    scale = clip.frame_count / player.max_frames
    return AVRunResult(
        platform=platform.name,
        network=network_label,
        frames_sent=player.max_frames,
        frames_received=frames_received,
        ideal_duration=player.ideal_duration,
        actual_duration=actual,
        bytes_transferred=monitor.total_bytes("server->client"),
        audio_supported=platform.supports_audio,
        audio_quality=aq,
        full_duration_scale=scale,
        av_sync_skew_s=skew,
    )


@dataclass
class TypingRunResult:
    """One typing-under-load run: the keystroke-to-echo latencies seen
    at the client, the RAWs the translation layer submitted, and the
    scan-line chunks the bulk images stand for."""

    latencies: List[float]
    raws: int
    chunks: int


def run_typing_benchmark(link: LinkParams,
                         scheduler_factory=SRSFScheduler,
                         keys: int = 15) -> TypingRunResult:
    """Echo latency under bulk load (the Section 5 ablation).

    Runs THINC at 640×480 with the given delivery scheduler while a
    user types into an editor as large images stream.
    """
    from ..protocol.commands import (BitmapCommand, CompositeCommand,
                                     RawCommand)
    from ..workloads.interactive import TypingUnderLoadWorkload

    loop = EventLoop()
    platform = make_platform("THINC", loop, link, width=640, height=480,
                             headless=False,
                             scheduler_factory=scheduler_factory)
    workload = TypingUnderLoadWorkload(
        platform.window_server, loop,
        inject_input=platform.send_client_input, keys=keys)

    # Observe echo delivery: the first glyph (bitmap/composite) command
    # executed at the client after each keystroke completes its record.
    client = platform.client
    original = client._execute

    def probe(cmd, now):
        original(cmd, now)
        if isinstance(cmd, (BitmapCommand, CompositeCommand)):
            for i, record in enumerate(workload.records):
                if record.echo_drawn_time is None \
                        and cmd.dest.overlaps(
                            __import__("repro.region", fromlist=["Rect"])
                            .Rect(workload.cursor[0] - 8,
                                  workload.cursor[1] - 8, 260, 24)):
                    workload.mark_echo_delivered(i, now)
                    break

    client._execute = probe
    # What the translation layer hands the server, before the delivery
    # buffer drops RAWs a later image overwrote.
    raws = 0
    submit = platform.server.submit

    def count(cmd):
        nonlocal raws
        raws += isinstance(cmd, RawCommand)
        submit(cmd)

    platform.server.submit = count
    workload.start()
    loop.run_until_idle(max_time=keys * workload.key_interval + 30)
    ws = platform.window_server
    return TypingRunResult(
        workload.latencies(), raws, ws.op_counts.get("put_image", 0)
        * -(-workload.image_size // IMAGE_CHUNK_ROWS))
