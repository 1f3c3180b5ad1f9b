"""Tripwire for the ``video.yuv`` ledger row: both present sites still
enter ``decode_frame`` and ``scale_rgb`` through the module attribute.

thincbench's tracer times the video conversion by replacing
``repro.video.yuv.decode_frame`` / ``scale_rgb`` with ``setattr``; the
server present (``WindowServer.video_put_frame``) and the client apply
(``VideoFrameCommand.apply``) must therefore look both up on the module
at call time, once each per frame.  A fused helper, or a
``from ..video.yuv import decode_frame`` binding, would keep every pixel
right and silently move the time into the ``display`` and
``core.client`` rows.
"""

from collections import Counter

from repro.core import THINCClient, THINCServer
from repro.display import WindowServer
from repro.net import Connection, EventLoop, LAN_DESKTOP
from repro.region import Rect
from repro.video import yuv
from repro.video.stream import SyntheticVideoClip

from ..helpers import assert_pixel_identical


def test_one_decode_and_one_scale_per_side_per_frame(monkeypatch):
    entered = Counter()

    def counting(name):
        inner = getattr(yuv, name)

        def wrapper(*args, **kwargs):
            entered[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in ("decode_frame", "scale_rgb"):
        monkeypatch.setattr(yuv, name, counting(name))

    loop = EventLoop()
    server = THINCServer(loop, 64, 48)
    ws = WindowServer(64, 48, driver=server.driver, clock=loop.clock)
    conn = Connection(loop, LAN_DESKTOP)
    server.attach_client(conn)
    client = THINCClient(loop, conn)
    loop.run_until_idle(max_time=5)
    clip = SyntheticVideoClip(width=16, height=12, fps=24, duration=0.1)
    stream = ws.video_create_stream("YV12", 16, 12, Rect(0, 0, 64, 48))
    assert not entered

    ws.video_put_frame(stream, clip.yv12_frame(0))
    assert entered == {"decode_frame": 1, "scale_rgb": 1}   # the server
    loop.run_until_idle(max_time=5)
    assert entered == {"decode_frame": 2, "scale_rgb": 2}   # + the client
    assert client.video_stats[stream.stream_id].frames_received == 1
    assert_pixel_identical(client, ws)
