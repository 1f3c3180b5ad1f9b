"""Deterministic scripted display workloads for rigs and scenarios.

Small seeded draw schedules whose only job is to keep *live traffic*
flowing while something else — a fault plan, a migration, a hostile
peer — happens to the session: same seed, same draws at the same
simulated times, so a disturbed run is comparable pixel for pixel with
an undisturbed twin (and mirrored shard screens stay mirrored).
:mod:`repro.cluster.scenario` names them by key in :data:`WORKLOADS`.
"""

from __future__ import annotations

import numpy as np

from ..display.wm import WindowManager
from ..region import Rect
from ..video.stream import SyntheticVideoClip
from .video import AVPlayerApp

__all__ = ["scripted_workload", "seeded_draw", "editor_session",
           "play_clip", "WORKLOADS"]

WHITE = (255, 255, 255, 255)
#: Seconds between the scripted workload's draws.
STEP = 0.05


def _draw(ws, op: str, arg) -> None:
    if op == "fill":
        ws.fill_rect(ws.screen, *arg)
    elif op == "image":
        ws.put_image(ws.screen, *arg)
    elif op == "text":
        ws.draw_text(ws.screen, *arg)
    else:
        ws.copy_area(ws.screen, ws.screen, *arg)


def _next_draw(rng, width: int, height: int):
    """One mixed draw — fill, image, glyph text or copy — off *rng*."""
    op = int(rng.integers(0, 4))
    x, y = int(rng.integers(0, width - 16)), int(rng.integers(0, height - 16))
    w, h = int(rng.integers(4, 16)), int(rng.integers(4, 16))
    color = tuple(int(v) for v in rng.integers(0, 256, 3)) + (255,)
    if op == 0:
        return "fill", (Rect(x, y, w, h), color)
    if op == 1:
        image = rng.integers(0, 256, (h, w, 4), dtype=np.uint8)
        image[..., 3] = 255  # a screen is opaque: blends over it are exact
        return "image", (Rect(x, y, w, h), image)
    if op == 2:
        return "text", (x, y, "thinc", color)
    return "copy", (Rect(0, 0, 24, 24), x, y)


def scripted_workload(loop, ws, end=1.5, seed=7):
    """Schedule a mixed drawing workload over [0, end) on a white screen.

    Draws land every ``STEP`` seconds so fault windows always interleave
    with live traffic.  Returns the ``(time, op, arg)`` schedule.
    """
    rng = np.random.default_rng(seed)
    width, height = ws.screen.bounds.width, ws.screen.bounds.height
    ws.fill_rect(ws.screen, ws.screen.bounds, WHITE)
    ops = []
    t = STEP
    while t < end:
        op, arg = _next_draw(rng, width, height)
        ops.append((t, op, arg))
        loop.schedule_at(t, lambda op=op, arg=arg: _draw(ws, op, arg))
        t += STEP
    return ops


def seeded_draw(ws, seed: int) -> None:
    """One draw of the scripted mix, now (a scenario's ``draw`` op)."""
    bounds = ws.screen.bounds
    _draw(ws, *_next_draw(np.random.default_rng(seed), bounds.width,
                          bounds.height))


def editor_session(loop, ws) -> None:
    """The CLI demo's desktop script: an editor window typed into line
    by line through the window manager, then moved."""
    width, height = ws.screen.bounds.width, ws.screen.bounds.height
    wm = WindowManager(ws)
    editor = wm.create_window("editor", Rect(
        width // 8, height // 8, width // 2, height // 2))
    for n in range(8):
        loop.schedule(0.15 * n, lambda n=n: wm.draw_in_window(
            editor, lambda s, d: s.draw_text(
                d, 6, 6 + n * 10, f"line {n}: the quick brown fox",
                (10, 10, 10, 255))))
    loop.schedule(1.3, lambda: wm.move_window(editor, width // 6,
                                              height // 6))


def play_clip(loop, ws, width=32, height=18, fps=24, duration=1.0,
              dst=(48, 24, 48, 32)) -> AVPlayerApp:
    """Start a synthetic clip playing into *dst* now; the returned
    player stops early when its ``max_frames`` is cut to
    ``frames_put``."""
    player = AVPlayerApp(
        ws, loop, SyntheticVideoClip(width, height, fps, duration, 2005),
        fullscreen=False, dst_rect=Rect(*dst))
    player.start()
    return player


#: Workload key -> ``schedule(loop, ws, **params)``.
WORKLOADS = {"scripted": scripted_workload, "editor": editor_session,
             "clip": play_clip}
