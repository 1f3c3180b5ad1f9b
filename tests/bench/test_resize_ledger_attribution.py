"""Tripwire for the ``core.resize`` ledger row: every pixel-carrying
command a scaled session sends enters ``resample`` once, through the
module attribute.

thincbench's tracer times the Fant resampler, and counts
``core.resize.calls_per_op`` / ``pixels_in_per_op``, by replacing
``repro.core.resize.resample`` with ``setattr``;
``DisplayScaler.scale_command`` must therefore look it up on the module
at call time, exactly once per RAW / PFILL / BITMAP / COMPOSITE / video
command, and never on an identity scaler.  A kernel entered some other
way (a helper called per axis, a bound reference captured at import)
would keep every pixel right and silently change what those two counts
mean.
"""

import numpy as np
import pytest

from repro.codec import Encoding
from repro.core import resize
from repro.core.resize import DisplayScaler
from repro.protocol import (BitmapCommand, CompositeCommand, CopyCommand,
                            PFillCommand, RawCommand, SFillCommand,
                            VideoFrameCommand)
from repro.region import Rect
from repro.video import yuv

DEST = Rect(16, 16, 32, 32)
PIXELS = np.full((32, 32, 4), 90, dtype=np.uint8)
COLOR = (255, 0, 0, 255)


def _video():
    rgb = np.full((24, 32, 3), 120, dtype=np.uint8)
    return VideoFrameCommand(1, DEST, 32, 24,
                             yuv.pack_yv12(*yuv.rgb_to_yv12(rgb)))


COMMANDS = {
    "raw": lambda: RawCommand(DEST, PIXELS, Encoding.NONE),
    "pfill": lambda: PFillCommand(DEST, PIXELS[:8, :8]),
    "bitmap_opaque": lambda: BitmapCommand(
        DEST, np.eye(32, dtype=bool), COLOR, (0, 0, 0, 255)),
    "bitmap_transparent": lambda: BitmapCommand(
        DEST, np.eye(32, dtype=bool), COLOR, None),
    "composite": lambda: CompositeCommand(DEST, PIXELS),
    "video": _video,
    "sfill": lambda: SFillCommand(DEST, COLOR),
    "copy": lambda: CopyCommand(64, 64, DEST),
}
RESAMPLED = {"raw", "pfill", "bitmap_opaque", "bitmap_transparent",
             "composite", "video"}


@pytest.fixture
def entered(monkeypatch):
    shapes = []
    inner = resize.resample

    def counting(pixels, dst_w, dst_h):
        shapes.append(pixels.shape[:2])
        return inner(pixels, dst_w, dst_h)

    monkeypatch.setattr(resize, "resample", counting)
    return shapes


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_one_resample_per_scaled_pixel_command(entered, name):
    scaler = DisplayScaler((128, 96), (80, 60))
    assert scaler.scale_command(COMMANDS[name]())
    assert len(entered) == (1 if name in RESAMPLED else 0)


def test_zoomed_video_is_one_resample_of_the_crop(entered):
    scaler = DisplayScaler((128, 96), (64, 48), view_rect=Rect(0, 0, 32, 24))
    assert scaler.scale_command(_video())
    assert entered == [(6, 16)]


def test_identity_scaler_never_resamples(entered):
    scaler = DisplayScaler((128, 96), (128, 96))
    for make in COMMANDS.values():
        cmd = make()
        assert scaler.scale_command(cmd) == [cmd]
    assert not entered
