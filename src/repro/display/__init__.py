"""The display substrate: framebuffer, window server, driver interface."""

from .compositing import apply_operator, over
from .driver import (DisplayDriver, InputEvent, RecordingDriver,
                     VideoStreamInfo)
from .framebuffer import CHANNELS, Framebuffer, make_tile, solid_pixels
from .pixmap import Drawable
from .xserver import AppCommand, WindowServer

__all__ = [
    "Framebuffer",
    "solid_pixels",
    "make_tile",
    "CHANNELS",
    "Drawable",
    "DisplayDriver",
    "RecordingDriver",
    "InputEvent",
    "VideoStreamInfo",
    "WindowServer",
    "AppCommand",
    "over",
    "apply_operator",
]
