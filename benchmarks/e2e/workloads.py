"""thincbench workloads: seeded op scripts and the drivers that issue them.

Every workload follows the same shape.  ``build`` turns a seed into an
*op script* — plain data, with every pixel array, frame and text line
already materialised — so the timed region issues nothing but
``WindowServer`` / client-input calls.  ``start`` builds a fresh rig
from the public constructors and runs the untimed prelude; ``issue``
runs one op (the unit that is timed) and advances the simulated clock
to the next op's issue time; ``finish`` drains the rig.  A rep is one
pass over the script on a fresh rig, so every rep of a seed does the
same work and must reproduce the same simulated-clock numbers.

The wall-clock loop is closed (the next op is issued only after the
event loop returned); on the simulated clock the three streaming
workloads are open loop at fixed rates, so the generator can never run
late.
"""

from __future__ import annotations

import random
from typing import List, Optional

import numpy as np

from repro.audio.driver import AudioFormat, VirtualAudioDriver
from repro.audio.sync import audio_quality, playback_quality
from repro.core import THINCClient, THINCServer
from repro.core.qos import QosConfig
from repro.core.resize import scale_rect
from repro.display import WindowServer
from repro.display.driver import InputEvent
from repro.display.font import ADVANCE, GLYPH_HEIGHT, GLYPH_WIDTH
from repro.net import (LAN_DESKTOP, Connection, EventLoop, LinkParams,
                       PacketMonitor)
from repro.region import Rect
from repro.video.stream import SyntheticVideoClip
from repro.workloads.terminal import TerminalApp
from repro.workloads.web import WebBrowserApp, make_page_set

__all__ = ["Rig", "Workload", "WORKLOADS"]

DOWN = "server->client"


class Rig:
    """One server, one simulated client connection, one real client."""

    def __init__(self, width: int, height: int, link: LinkParams,
                 viewport=None, **server_kwargs):
        self.loop = EventLoop()
        self.monitor = PacketMonitor()
        self.conn = Connection(self.loop, link, monitor=self.monitor)
        self.server = THINCServer(self.loop, width, height, **server_kwargs)
        self.ws = WindowServer(width, height, driver=self.server.driver,
                               clock=self.loop.clock)
        self.session = self.server.attach_client(self.conn,
                                                 viewport=viewport)
        self.client = THINCClient(self.loop, self.conn, headless=False)
        self.server.input_handler = self._on_input
        # The application's reaction to input reaching the server.
        self.on_input = None
        # Per-op simulated-clock record, filled by the workload: when
        # the op was issued, when its pixels were complete at the
        # client (None: never), and client processing added on top.
        self.issued: List[float] = []
        self.done: List[Optional[float]] = []
        self.extra: List[float] = []

    def _on_input(self, session, msg) -> None:
        self.ws.inject_input(InputEvent(msg.kind, msg.x, msg.y, msg.time))
        if self.on_input is not None:
            self.on_input()

    def quiescent(self) -> bool:
        return not self.server.pending() and self.conn.idle()

    def settle(self, horizon: float) -> bool:
        """Run to idle within *horizon* simulated seconds."""
        self.loop.run_until_idle(max_time=self.loop.now + horizon)
        return self.quiescent() and not self.loop.pending()

    def record(self, issued: float, done: Optional[float],
               extra: float = 0.0) -> None:
        self.issued.append(issued)
        self.done.append(done)
        self.extra.append(extra)

    def pixel_exact(self) -> bool:
        return self.client.fb is not None \
            and self.client.fb.same_as(self.ws.screen.fb)


# -- recording application draws into a script -------------------------------

class _Drawable:
    """Stands in for a drawable while an application model records."""

    def __init__(self, width: int, height: int, onscreen: bool):
        self.width = width
        self.height = height
        self.onscreen = onscreen
        self.bounds = Rect(0, 0, width, height)


class Recorder:
    """A ``WindowServer`` stand-in that records the calls made on it.

    The application models in ``repro.workloads`` draw through it in
    set-up; :func:`replay` issues the recorded calls on a real window
    server inside the timed region.
    """

    def __init__(self, width: int, height: int):
        self.screen = _Drawable(width, height, onscreen=True)
        self._calls: list = []

    def create_pixmap(self, width: int, height: int, label=None):
        self._calls.append(("create_pixmap", (width, height)))
        return _Drawable(width, height, onscreen=False)

    def __getattr__(self, name: str):
        def record(*args):
            self._calls.append((name, args))
        return record

    def take(self) -> list:
        calls, self._calls = self._calls, []
        return calls


def replay(ws: WindowServer, calls: list) -> None:
    """Issue recorded calls on *ws* (at most one pixmap live at a time)."""
    screen = ws.screen
    pixmap = None
    for name, args in calls:
        if name == "create_pixmap":
            pixmap = ws.create_pixmap(*args)
            continue
        getattr(ws, name)(*[
            (screen if a.onscreen else pixmap)
            if isinstance(a, _Drawable) else a for a in args])


# -- the workloads -------------------------------------------------------------

class Workload:
    name = ""
    why = ""
    ops_full = 0
    ops_quick = 0
    #: Timed reps of a full run.  Work is fixed by op count, not by
    #: time, so both sides of an A/B do identical work; the counts are
    #: the issue's, scaled so that a run fits the contract's time cap.
    reps_full = 0

    def build(self, seed: int, n: int):
        """The op script for *n* ops, generated from *seed* alone."""
        raise NotImplementedError

    def start(self, script) -> Rig:
        """A fresh rig with the untimed prelude already run."""
        raise NotImplementedError

    def issue(self, rig: Rig, script, i: int) -> bool:
        """Run op *i*; False when the op is known to have failed."""
        raise NotImplementedError

    def finish(self, rig: Rig, script) -> bool:
        """Drain after the last op; False when the rig never drained."""
        return rig.settle(5.0)

    def verify(self, rig: Rig) -> bool:
        """End-of-rep correctness beyond the per-op checks."""
        return rig.pixel_exact()

    def quality(self, rig: Rig, script) -> float:
        """Fraction of ops whose pixels completed in issue order."""
        in_order = 0
        latest = float("-inf")
        for done in rig.done:
            if done is not None and done >= latest:
                in_order += 1
                latest = done
        return in_order / max(len(rig.done), 1)


def _redraw(pages, seed: int) -> None:
    """Re-draw every page's content from *seed*, keeping its layout.

    The layout (which elements, where, how long each text run) decides
    how much work a page is; drawn afresh per seed it moves the median
    page cost by ~10 %, more than the benchmark's bounds.  So the
    layout is the fixed i-Bench-model set and the seed decides every
    string, colour and image — except the full-page photographs of the
    image-heavy pages: DEFLATE time depends on the photograph by ~15 %,
    and those two pages alone are ``op_wall_ms_p90``.
    """
    rng = random.Random(seed)
    vocabulary = sorted({word for page in pages for e in page.elements
                         for word in e.text.split()})
    for page in pages:
        for element in page.elements:
            if element.kind == "text":
                words = []
                while len(" ".join(words)) < len(element.text):
                    words.append(rng.choice(vocabulary))
                element.text = " ".join(words)[:len(element.text)]
            elif element.kind == "fill" and element.rect.height == 48:
                element.color = tuple(
                    rng.randrange(60, 200) for _ in range(3)) + (255,)
            elif element.kind != "fill" and not (
                    page.image_heavy and element.kind == "photo"):
                element.seed = rng.getrandbits(30)


class WebLan(Workload):
    name = "web_lan"
    why = ("i-Bench page loads on a LAN: glyph rasterisation, offscreen "
           "queue add/merge + replay, PNG on the image-heavy pages")
    ops_full = 16
    ops_quick = 5  # page 4 is the first image-heavy one
    reps_full = 8

    WIDTH, HEIGHT = 1024, 768
    LAYOUT_SEED = 54
    PAGE_GAP = 0.75  # idle before each click, as testbed.run_web_benchmark
    PAGE_DEADLINE = 30.0

    def build(self, seed, n):
        pages = make_page_set(count=n, width=self.WIDTH,
                              height=self.HEIGHT, seed=self.LAYOUT_SEED)
        _redraw(pages, seed)
        recorder = Recorder(self.WIDTH, self.HEIGHT)
        browser = WebBrowserApp(recorder, pages)
        ops = []
        for i, page in enumerate(pages):
            browser.render_page(i)
            ops.append((browser.link_position(max(i - 1, 0)),
                        browser.processing_delay(page), recorder.take()))
        return ops

    def start(self, script):
        rig = Rig(self.WIDTH, self.HEIGHT, LAN_DESKTOP)
        rig.rendered = 0
        rig.clicked = 0

        def render(calls):
            replay(rig.ws, calls)
            rig.rendered += 1

        def on_click():
            # The browser reacts to the click after its processing time.
            _, delay, calls = script[rig.clicked]
            rig.loop.schedule(delay, lambda: render(calls))

        rig.on_input = on_click
        rig.settle(1.0)
        return rig

    def issue(self, rig, script, i):
        loop = rig.loop
        click = loop.now + self.PAGE_GAP
        loop.run_until(click)
        (x, y), _, _ = script[i]
        rig.clicked = i
        before = rig.client.stats["processing_time"]
        rig.client.send_input("mouse-click", x, y)
        loop.run_until_idle(max_time=click + self.PAGE_DEADLINE)
        # Slow-motion latency (slowmotion.measure_page): click to the
        # last server->client packet, plus modelled client processing.
        last = rig.monitor.last_packet_time(DOWN)
        ok = (rig.rendered == i + 1 and rig.quiescent()
              and not loop.pending() and last is not None
              and last >= click)
        rig.record(click, last if ok else None,
                   rig.client.stats["processing_time"] - before)
        return ok


class VideoLan(Workload):
    name = "video_lan"
    why = ("Fig-5 A/V clip full screen on a LAN: YUV present/apply and "
           "transport segments; bypasses queue, codec and resize work")
    ops_full = 96
    ops_quick = 8
    reps_full = 4

    WIDTH, HEIGHT = 1024, 768
    CLIP_W, CLIP_H, FPS = 352, 240, 24.0

    def build(self, seed, n):
        clip = SyntheticVideoClip(self.CLIP_W, self.CLIP_H, fps=self.FPS,
                                  duration=n / self.FPS, seed=seed)
        per_frame = AudioFormat().bytes_for(clip.frame_interval)
        return {
            "frames": [clip.yv12_frame(i) for i in range(n)],
            # As AVPlayerApp: one PCM block per frame interval.
            "audio": b"\x17\x2a" * (per_frame // 2),
            "dt": clip.frame_interval,
        }

    def start(self, script):
        rig = Rig(self.WIDTH, self.HEIGHT, LAN_DESKTOP, qos=QosConfig())
        rig.stream = rig.ws.video_create_stream(
            "YV12", self.CLIP_W, self.CLIP_H,
            Rect(0, 0, self.WIDTH, self.HEIGHT))
        rig.audio = VirtualAudioDriver(rig.server, rig.loop.clock)
        rig.settle(1.0)
        rig.t0 = rig.loop.now
        return rig

    def issue(self, rig, script, i):
        dt = script["dt"]
        issued = rig.loop.now
        rig.ws.video_put_frame(rig.stream, script["frames"][i])
        rig.audio.play(script["audio"])
        rig.loop.run_until(rig.t0 + (i + 1) * dt)
        stats = rig.client.video_stats.get(rig.stream.stream_id)
        ok = (stats is not None and len(stats.arrivals) == i + 1
              and stats.arrivals[-1][0] == i + 1)
        rig.record(issued, stats.arrivals[-1][1] if ok else None)
        return ok

    def finish(self, rig, script):
        rig.audio.drain()
        rig.ws.video_destroy_stream(rig.stream)
        return rig.settle(5.0)

    def verify(self, rig):
        # The QoS probe path runs, but an uncontended LAN must leave
        # the ladder at rung 0 with no frame dropped or degraded, which
        # makes the bytes those of the fixed-rate path.
        qos = rig.server.qos.stats
        return (rig.pixel_exact() and rig.session.qos_rung == 0
                and qos["rungs_down"] == 0 and qos["frames_dropped"] == 0
                and qos["frames_degraded"] == 0
                and qos["frames_passed"] == len(rig.issued))

    def quality(self, rig, script):
        """Slow-motion A/V quality, as testbed.run_av_benchmark."""
        n = len(script["frames"])
        ideal = n * script["dt"]
        arrivals = [t for t in rig.done if t is not None]
        if not arrivals:
            return 0.0
        actual = max(arrivals[-1] - rig.t0, ideal * 0.01,
                     rig.client.stats["processing_time"])
        video = playback_quality(len(arrivals), n, ideal, actual)
        audio = audio_quality(rig.client.audio.arrivals,
                              rig.audio.chunks_emitted, ideal)
        return video * (0.9 + 0.1 * audio)


_LOG_DIRS = ("core", "net", "display", "codec", "video", "protocol",
             "region", "cluster")
_LOG_STEMS = ("queue", "driver", "client", "server", "scaler", "wire",
              "stream", "monitor", "region", "policy", "buffer", "relay")
_LOG_MIN_CHARS = 56


def _log_line(rng: random.Random, chars: int) -> str:
    """One compiler line with a trailing note, cut to *chars*."""
    path = f"{rng.choice(_LOG_DIRS)}/{rng.choice(_LOG_STEMS)}" \
           f"_{rng.randrange(1000):03d}"
    note = " ".join(rng.choice(_LOG_STEMS) for _ in range(6))
    line = (f"[{rng.randrange(100):2d}%] cc -O2 -c src/{path}.c "
            f"-o obj/{path}.o  # note: {note}")
    return line[:chars]


def _line_lengths(rng: random.Random, n: int, max_chars: int) -> List[int]:
    """*n* line lengths spread evenly over [_LOG_MIN_CHARS, max_chars],
    in an order the seed decides.  A line's wire bytes and simulated
    latency depend on its length alone (29 B per glyph), so the same
    lengths in any order give every seed the same `wire_bytes_per_op`
    and `sim_latency_*`; the seed decides the text and the order."""
    span = max_chars - _LOG_MIN_CHARS + 1
    lengths = [_LOG_MIN_CHARS + i * span // n for i in range(n)]
    rng.shuffle(lengths)
    return lengths


class TermScroll(Workload):
    name = "term_scroll"
    why = ("build log scrolling in a terminal: ~2 KB per line, so "
           "per-command overhead dominates; onscreen queue with COPY "
           "pinning, no offscreen replay")
    ops_full = 240
    ops_quick = 30
    reps_full = 6

    WIDTH, HEIGHT = 640, 480
    REGION = Rect(40, 40, 560, 400)
    LINE_DT = 0.02  # 50 lines/s

    def build(self, seed, n):
        rng = random.Random(seed)
        recorder = Recorder(self.WIDTH, self.HEIGHT)
        term = TerminalApp(recorder, None, rect=self.REGION)
        width = (self.REGION.width - 8) // ADVANCE
        # Fill the screen in the prelude so every timed line scrolls.
        for _ in range(term.rows):
            term.write_line(_log_line(rng, width))
        prelude = recorder.take()
        ops = []
        for chars in _line_lengths(rng, n, width):
            term.write_line(_log_line(rng, chars))
            ops.append(recorder.take())
        return {"prelude": prelude, "ops": ops}

    def start(self, script):
        rig = Rig(self.WIDTH, self.HEIGHT, LAN_DESKTOP)
        replay(rig.ws, script["prelude"])
        rig.settle(1.0)
        rig.t0 = rig.loop.now
        return rig

    def issue(self, rig, script, i):
        issued = rig.loop.now
        replay(rig.ws, script["ops"][i])
        rig.loop.run_until(rig.t0 + (i + 1) * self.LINE_DT)
        done = rig.client.stats["last_update_time"]
        # Quiescence is asserted at every op boundary: the line must be
        # wholly on the client before the next one is issued.
        ok = rig.quiescent() and done >= issued
        rig.record(issued, done if ok else None)
        return ok


class TypingDsl(Workload):
    name = "typing_dsl"
    why = ("typing under bulk image load on an 8 Mbit/s 30 ms link into "
           "a scaled viewport: Fant resize, encoder policy, real-time "
           "queue and flush splitting; the link sets the latency")
    ops_full = 80
    ops_quick = 8
    reps_full = 8

    WIDTH, HEIGHT = 1024, 768
    VIEWPORT = (640, 480)
    LINK = LinkParams("DSL 8M/30ms", bandwidth_bps=8e6, rtt=0.030,
                      tcp_window=256 * 1024)
    KEY_DT = 0.15
    KEY_PHASE = 0.02
    # Two images per keystroke interval, so every op is the same amount
    # of bulk work (~0.73 of the link's rate after scaling).  Their
    # phase against the key steps through IMAGE_PHASES evenly spaced
    # offsets, so the echo meets every amount of image backlog equally
    # often whatever the seed.  Five phases put the 50th and 90th
    # percentile of 80 echoes in the middle of a phase group, not on
    # the edge between two.
    IMAGE_DT = 0.075
    IMAGE_PHASE = 0.01
    IMAGE_PHASES = 5
    IMAGE_PHASE_STEP = 0.012
    IMAGE = 192
    # Images sit on a grid the 5/8 viewport scale maps to whole pixels,
    # so every image reaches the client as exactly 120x120.  At free
    # positions the scaled size varies by a row or column, the bytes by
    # ~2 %, and that decides which flush period a later echo catches:
    # the latency median then jumps between 42.8 and 54.8 ms by seed.
    IMAGE_GRID = 8
    CURSOR = (40, HEIGHT - 40)
    ECHO_SLOTS = 30

    def _echo_x(self, k: int) -> int:
        return self.CURSOR[0] + ADVANCE * (k % self.ECHO_SLOTS)

    def build(self, seed, n):
        rng = np.random.default_rng(seed)
        size = self.IMAGE
        ops: List[list] = [[] for _ in range(n)]
        for k in range(n):
            start = k * self.KEY_DT
            ops[k].append((start + self.KEY_PHASE, "key", k))
            phase = self.IMAGE_PHASE \
                + (k % self.IMAGE_PHASES) * self.IMAGE_PHASE_STEP
            for j in range(2):
                grid = self.IMAGE_GRID
                x = grid * int(rng.integers(0, (self.WIDTH - size) // grid))
                y = grid * int(rng.integers(
                    0, (self.HEIGHT - size - 80) // grid))
                block = rng.integers(0, 256, (size, size, 4),
                                     dtype=np.uint8)
                ops[k].append((start + phase + j * self.IMAGE_DT, "image",
                               (Rect(x, y, size, size), block)))
        for steps in ops:
            steps.sort(key=lambda step: step[0])
        return ops

    def start(self, script):
        rig = Rig(self.WIDTH, self.HEIGHT, self.LINK,
                  viewport=self.VIEWPORT, adaptive_encoding=True)
        ws = rig.ws
        ws.fill_rect(ws.screen, ws.screen.bounds, (250, 250, 250, 255))
        rig.settle(5.0)
        rig.t0 = rig.loop.now
        n = len(script)
        rig.issued = [0.0] * n
        rig.done = [None] * n
        rig.extra = [0.0] * n
        rig.echoed = 0
        waiting: List[int] = []
        rig.waiting = waiting
        sx = self.VIEWPORT[0] / self.WIDTH
        sy = self.VIEWPORT[1] / self.HEIGHT
        cy = self.CURSOR[1]
        echo_rects = [
            scale_rect(Rect(self._echo_x(k), cy, GLYPH_WIDTH, GLYPH_HEIGHT),
                       sx, sy) for k in range(n)]
        strip_top = echo_rects[0].y

        def echo():
            # The editor echoes the key once the input reaches it.
            k = rig.echoed
            rig.echoed += 1
            ws.draw_text(ws.screen, self._echo_x(k), cy,
                         chr(ord("a") + k % 26), (10, 10, 10, 255))

        rig.on_input = echo

        # Echo arrival is observed where the client executes commands,
        # as testbed.run_typing_benchmark does.
        execute = rig.client._execute

        def probe(cmd, now):
            execute(cmd, now)
            if waiting and cmd.dest.y2 > strip_top:
                for k in waiting[:]:
                    if cmd.dest.contains(echo_rects[k]):
                        rig.done[k] = now
                        waiting.remove(k)

        rig.client._execute = probe
        return rig

    def issue(self, rig, script, i):
        loop = rig.loop
        ws = rig.ws
        for offset, kind, payload in script[i]:
            loop.run_until(rig.t0 + offset)
            if kind == "key":
                rig.issued[payload] = loop.now
                rig.waiting.append(payload)
                rig.client.send_input("key", *self.CURSOR)
            else:
                ws.put_image(ws.screen, *payload)
        loop.run_until(rig.t0 + (i + 1) * self.KEY_DT)
        return True

    def finish(self, rig, script):
        return rig.settle(30.0)

    def verify(self, rig):
        # A scaled client cannot be compared with the server's screen;
        # the harness compares the client framebuffer digest across
        # reps of the same seed instead.
        return not rig.server.pending()


WORKLOADS = {w.name: w for w in (WebLan(), VideoLan(), TermScroll(),
                                 TypingDsl())}
