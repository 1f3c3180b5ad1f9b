"""Golden for the two server-side video transcoders.

``resize._map_video`` and ``qos._transform`` each decode a VFRAME,
resample or squeeze it, and re-encode it; their output bytes reach the
wire, so a change to the shared YUV decode that is not bit-exact would
move ``wire_bytes`` and every scaled client's pixels.
``transcoder_golden.json`` pins the SHA-256 of the re-encoded
``yuv_bytes`` (and the declared source geometry) for one frame through
three cases, in both wire pixel formats: a scaled viewport that shows
the whole frame, which ``_map_video`` only resamples (``scale_video``),
a zoomed view that crops it first (``map_video``), and two QoS rungs
(``qos_transform``).  It was generated before the integer decode
replaced the float one and must pass unchanged; a deliberate change
to the conversion regenerates it (``PYTHONPATH=src python
tests/video/test_transcoder_golden.py``) and says so in its PR.
"""

import hashlib
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.core import THINCServer, qos
from repro.core.qos import QosConfig
from repro.core.resize import DisplayScaler
from repro.net import EventLoop
from repro.protocol.commands import VideoFrameCommand
from repro.region import Rect
from repro.video import yuv

GOLDEN = Path(__file__).with_name("transcoder_golden.json")

SRC_W, SRC_H = 44, 30
DEST = Rect(16, 12, 88, 60)


def _frame(pixel_format):
    rng = np.random.default_rng(19)
    rgb = rng.integers(0, 256, (SRC_H, SRC_W, 3), dtype=np.uint8)
    return VideoFrameCommand(7, DEST, SRC_W, SRC_H,
                             yuv.encode_frame(pixel_format, rgb),
                             frame_no=3, pixel_format=pixel_format)


def _scaled_viewport(cmd):
    # The whole frame is in view, so _map_video only resamples it.
    return DisplayScaler((128, 96), (48, 36)).scale_command(cmd)


def _zoomed(cmd):
    # The view cuts through the frame, so _map_video crops the decoded
    # source before it enlarges it.
    scaler = DisplayScaler((128, 96), (96, 72), view_rect=Rect(40, 30, 48, 36))
    return scaler.scale_command(cmd)


def _qos(cmd):
    # The golden's quantiser step: coarser than the plane's own.
    with mock.patch.object(qos, "QSTEP", 24):
        server = THINCServer(EventLoop(), 128, 96, qos=QosConfig())
        return [server.qos._transform(cmd, rung) for rung in (2, 3)]


CASES = {"scale_video": _scaled_viewport, "map_video": _zoomed,
         "qos_transform": _qos}


def _current(name, pixel_format):
    return [f"{c.src_width}x{c.src_height} "
            + hashlib.sha256(c.yuv_bytes).hexdigest()
            for c in CASES[name](_frame(pixel_format))]


@pytest.mark.parametrize("pixel_format", yuv.FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_transcoded_bytes_match_golden(name, pixel_format):
    golden = json.loads(GOLDEN.read_text())
    assert _current(name, pixel_format) == golden[f"{name}/{pixel_format}"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {f"{name}/{fmt}": _current(name, fmt)
         for fmt in yuv.FORMATS for name in sorted(CASES)}, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
