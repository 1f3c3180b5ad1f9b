#!/usr/bin/env python
"""A scripted desktop session: windows, typing, moves, video — remote.

Drives a small desktop (window manager, cursor, overlapping windows, a
video window) through THINC over a WAN link, then reports what the
session cost on the wire, broken down by protocol message — the
workload mix the paper's motivation sections describe.

Run:  python examples/desktop_session.py
"""

import io

import numpy as np

from repro.bench.reporting import format_table
from repro.core import THINCClient, THINCServer
from repro.display import WindowServer
from repro.display.wm import WindowManager
from repro.net import Connection, EventLoop, PacketMonitor, WAN_DESKTOP
from repro.protocol.trace import TraceRecorder, read_trace, summarize_trace
from repro.region import Rect
from repro.video.stream import SyntheticVideoClip

BLACK = (10, 10, 10, 255)


def main() -> None:
    loop = EventLoop()
    monitor = PacketMonitor()
    conn = Connection(loop, WAN_DESKTOP, monitor=monitor)
    server = THINCServer(loop, 640, 480)
    ws = WindowServer(640, 480, driver=server.driver, clock=loop.clock)
    server.attach_client(conn)
    client = THINCClient(loop, conn)
    # Record the downstream protocol for the wire breakdown.
    trace_sink = io.BytesIO()
    recorder = TraceRecorder(trace_sink, loop.clock)
    conn.down.connect(recorder.tee(client._on_data))

    wm = WindowManager(ws)
    # An arrow cursor, pushed once.
    arrow = np.zeros((12, 8, 4), dtype=np.uint8)
    for i in range(8):
        arrow[i, : i + 1] = (0, 0, 0, 255)
    ws.set_cursor(arrow)

    editor = wm.create_window("editor", Rect(30, 30, 280, 200))
    terminal = wm.create_window("terminal", Rect(180, 120, 280, 200),
                                content_color=(20, 20, 28, 255))

    # The user types into the terminal...
    def type_line(n):
        wm.draw_in_window(terminal, lambda s, d: s.draw_text(
            d, 6, 6 + n * 10, f"$ make check  # line {n}",
            (120, 255, 120, 255)))

    for n in range(6):
        loop.schedule(0.2 * n, lambda n=n: type_line(n))

    # ...then drags it aside and works in the editor...
    loop.schedule(1.4, lambda: wm.move_window(terminal, 120, 90))
    loop.schedule(1.6, lambda: wm.raise_window(editor))
    loop.schedule(1.8, lambda: wm.draw_in_window(
        editor, lambda s, d: s.draw_text(d, 6, 6,
                                         "def main():", BLACK)))

    # ...and opens a small video window.
    clip = SyntheticVideoClip(width=64, height=48, fps=24, duration=1.0)

    def start_video():
        stream = ws.video_create_stream("YV12", 64, 48,
                                        Rect(420, 40, 160, 120))

        def put(i):
            if i < clip.frame_count:
                ws.video_put_frame(stream, clip.yv12_frame(i))
                loop.schedule(clip.frame_interval, lambda: put(i + 1))
            else:
                ws.video_destroy_stream(stream)

        put(0)

    loop.schedule(2.0, start_video)
    end = loop.run_until_idle(max_time=30)

    print(f"session length           : {end:.2f} s (simulated)")
    print(f"pixel-exact at client    : {client.fb.same_as(ws.screen.fb)}")
    print(f"cursor shape at client   : "
          f"{client.cursor_image is not None}")
    print(f"bytes on the wire        : {monitor.total_bytes():,}")
    summary = summarize_trace(read_trace(trace_sink.getvalue()))
    sizes = summary["bytes_by_kind"]
    total = sum(sizes.values())
    rows = [[kind, summary["messages"][kind], f"{n:,}", f"{n / total:.1%}"]
            for kind, n in sorted(sizes.items(), key=lambda kv: -kv[1])]
    rows.append(["total", sum(summary["messages"].values()), f"{total:,}",
                 ""])
    print()
    print(format_table("wire breakdown by protocol message",
                       ["message", "count", "bytes", "share"], rows))


if __name__ == "__main__":
    main()
