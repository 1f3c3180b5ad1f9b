"""Tripwire for the ``video.yuv`` ledger row: a presented frame is held
as an overlay, and the first read composes it through the module
attribute.

thincbench's tracer times the video conversion by replacing
``repro.video.yuv.decode_frame`` / ``scale_rgb`` with ``setattr``.  Both
present sites (``WindowServer.video_put_frame`` on the server,
``VideoFrameCommand.apply`` on the client) hand the frame to
``Framebuffer.present_video``, which converts nothing; the settle on the
next read must look both up on the module at call time, once each per
side.  An eager present would put the conversion back on every frame,
and a ``from ..video.yuv import decode_frame`` binding would keep every
pixel right and silently move the time into the ``display`` and
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


def test_a_frame_is_composed_once_per_side_on_first_read(monkeypatch):
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

    for i in range(2):
        ws.video_put_frame(stream, clip.yv12_frame(i))
        loop.run_until_idle(max_time=5)
    assert len(client.video_stats[stream.stream_id].arrivals) == 2
    assert not entered                      # presenting converts nothing

    assert_pixel_identical(client, ws)
    assert entered == {"decode_frame": 2, "scale_rgb": 2}   # one per side
    assert_pixel_identical(client, ws)
    assert entered == {"decode_frame": 2, "scale_rgb": 2}   # already settled
