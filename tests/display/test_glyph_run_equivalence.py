"""The glyph-run text path against the per-glyph loop it replaced.

``tests/display/reference.py`` keeps the pre-PR-12 ``draw_text`` (and
the byte-wise stipple kernel under it) verbatim.  Every test here runs
one random script through both window servers and requires identical
results at each layer the run crosses: framebuffer bytes and
``pixels_drawn``, the driver call list, the offscreen queue (commands,
``seq``, statistics, opaque cover, taint), and — through a
full server/client rig — the client's pixels.  Onscreen, ``THINCDriver``
ships a wholly visible line as one stipple: the oracle is the per-glyph
BITMAP list with each such line left-folded by ``try_merge``, and the
wire may carry no more bytes than the per-glyph rig's.
"""

from functools import reduce

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import THINCClient, THINCServer
from repro.core.translation import THINCDriver
from repro.display import Framebuffer, WindowServer
from repro.display.driver import DisplayDriver, RecordingDriver
from repro.display.font import ADVANCE
from repro.net import Connection, EventLoop, LAN_DESKTOP
from repro.region import Rect, Region
from tests.core.test_offscreen_properties import QueueSink
from tests.display.reference import PerGlyphWindowServer

W, H = 72, 40      # screen
PW, PH = 64, 32    # pixmap

# Real glyphs, lowercase (renders as uppercase), spaces, and code points
# the font only has pseudo-glyphs for.
texts = st.text(alphabet="AbZ 09.,|_é中\x00", max_size=14)
colors = st.tuples(*[st.integers(0, 255)] * 3).map(lambda c: c + (255,))
targets = st.sampled_from(["screen", "pixmap"])
rects = st.builds(Rect, st.integers(-8, W), st.integers(-8, H),
                  st.integers(1, W), st.integers(1, H))

# Positions hang off every edge, with negative x and y among them.
text_ops = st.tuples(st.just("text"), targets, st.integers(-40, W + 6),
                     st.integers(-9, H + 3), texts, colors)
# The next run on the same baseline, right where the last one ended:
# its first glyph merges with the queued tail when the colour matches.
continue_ops = st.tuples(st.just("continue"), texts,
                         st.one_of(st.none(), colors))
clip_ops = st.tuples(st.just("clip"), st.one_of(
    st.none(), rects,
    st.lists(rects, min_size=1, max_size=3).map(Region)))
fill_ops = st.tuples(st.just("fill"), targets, rects, colors)
scripts = st.lists(st.one_of(text_ops, text_ops, continue_ops, continue_ops,
                             clip_ops, fill_ops), max_size=10)


def run_script(ws, pixmap, script, after=lambda line: None):
    """Play *script* on *ws*; returns what the draw calls returned.

    ``after(line)`` runs after each op; *line* is true for text drawn
    onscreen wholly visible, which ``draw_text`` hands over as one run.
    """
    returned = []
    target, x, y, fg = "pixmap", 2, 3, (10, 20, 30, 255)
    for op in script:
        line = False
        if op[0] == "clip":
            ws.set_clip(op[1])
        elif op[0] == "fill":
            drawable = ws.screen if op[1] == "screen" else pixmap
            returned.append(ws.fill_rect(drawable, op[2], op[3]))
        else:
            if op[0] == "text":
                _, target, x, y, text, fg = op
            else:
                _, text, new_fg = op
                fg = new_fg or fg
            drawable = ws.screen if target == "screen" else pixmap
            bounds = ws.draw_text(drawable, x, y, text, fg)
            returned.append(bounds)
            x += len(text) * ADVANCE
            line = (drawable.onscreen and bool(text) and ws._clip is None
                    and drawable.fb.bounds.contains(bounds))
        after(line)
    return returned


class DetailedRecorder(DisplayDriver):
    """Every hook call with its full arguments, drawables by role."""

    def __init__(self):
        self.calls = []

    def solid_fill(self, drawable, rect, color):
        self.calls.append(("solid_fill", drawable.onscreen, rect, color))

    def bitmap_fill(self, drawable, rect, mask, fg, bg):
        assert mask.dtype == bool
        self.calls.append(("bitmap_fill", drawable.onscreen, rect,
                           mask.shape, mask.tobytes(), fg, bg))


def pair(make_driver):
    """(new, oracle) as (ws, pixmap, driver) triples."""
    out = []
    for ws_class in (WindowServer, PerGlyphWindowServer):
        driver = make_driver()
        ws = ws_class(W, H, driver=driver)
        out.append((ws, ws.create_pixmap(PW, PH), driver))
    return out


def same_pixels(a, b):
    (ws_a, pm_a, _), (ws_b, pm_b, _) = a, b
    for fb_a, fb_b in ((ws_a.screen.fb, ws_b.screen.fb),
                       (pm_a.fb, pm_b.fb)):
        assert fb_a.same_as(fb_b)
        assert fb_a.pixels_drawn == fb_b.pixels_drawn


class TestDisplayLayer:
    @given(scripts)
    @settings(max_examples=150, deadline=None)
    def test_pixels_and_driver_calls(self, script):
        new, old = pair(DetailedRecorder)
        assert run_script(*new[:2], script) == run_script(*old[:2], script)
        same_pixels(new, old)
        assert new[2].calls == old[2].calls
        assert new[0].op_counts == old[0].op_counts

    @given(scripts)
    @settings(max_examples=50, deadline=None)
    def test_recording_driver_sees_the_unchanged_call_list(self, script):
        # RecordingDriver does not override glyph_run, like every
        # baseline driver: it must still see one bitmap_fill per glyph.
        new, old = pair(RecordingDriver)
        run_script(*new[:2], script)
        run_script(*old[:2], script)

        def calls(rig):
            ws, pixmap, driver = rig
            roles = {ws.screen.id: "screen", pixmap.id: "pixmap"}
            return [(c.name, roles[c.drawable_id], c.rect)
                    for c in driver.calls]

        assert calls(new) == calls(old)
        assert "glyph_run" not in new[2].names()


def queue_state(queue):
    if queue is None:
        return None
    return ([(type(c).__name__, c.dest, c.seq, c.realtime, c.sched_floor,
              c.encode()) for c in queue],
            queue.stats, queue._next_seq, queue.opaque_cover, queue.tainted)


def described(commands):
    return [(type(c).__name__, c.dest, c.encode()) for c in commands]


def sunk(driver):
    return described(driver.sink.commands)


def line_folder(commands):
    """An ``after`` hook for a per-glyph rig sinking into *commands*,
    and the list it fills: what a driver shipping one stipple per
    wholly visible line must sink — *commands* with each such line's
    BITMAPs left-folded by ``try_merge``."""
    folded, start = [], 0

    def after(line):
        nonlocal start
        fresh, start = commands[start:], len(commands)
        folded.extend([reduce(lambda a, b: a.try_merge(b), fresh)]
                      if line else fresh)

    return after, folded


class TestTranslationAndQueue:
    @given(scripts, st.booleans(), rects,
           st.integers(-4, W), st.integers(-4, H))
    @settings(max_examples=150, deadline=None)
    def test_queue_state_and_replay(self, script, awareness,
                                    src_rect, dst_x, dst_y):
        new, old = pair(lambda: THINCDriver(
            QueueSink(), compress_raw=False, offscreen_awareness=awareness))
        run_script(*new[:2], script)
        after, folded = line_folder(old[2].sink.commands)
        run_script(*old[:2], script, after)
        same_pixels(new, old)
        assert queue_state(new[2].offscreen_queue(new[1])) \
            == queue_state(old[2].offscreen_queue(old[1]))
        # One onscreen command per line; driver_ops still counts glyphs.
        assert new[2].stats == {**old[2].stats,
                                "onscreen_commands": len(folded)}
        assert sunk(new[2]) == described(folded)

        # Flip the pixmap onscreen: merged runs replay where the queue
        # describes what is under them, RAW covers tainted text.
        for ws, pixmap, driver in (new, old):
            driver.sink.commands.clear()
            ws.set_clip(None)
            ws.copy_area(pixmap, ws.screen, src_rect, dst_x, dst_y)
        assert sunk(new[2]) == sunk(old[2])
        assert new[2].stats == {**old[2].stats,
                                "onscreen_commands": len(folded)}
        same_pixels(new, old)

    def test_runs_merge_across_calls_into_one_command(self):
        (ws, pixmap, driver), old = pair(
            lambda: THINCDriver(QueueSink(), compress_raw=False))
        script = [("fill", "pixmap", Rect(0, 0, PW, PH), (0, 0, 0, 255)),
                  ("text", "pixmap", 1, 2, "ab ", (9, 9, 9, 255)),
                  ("continue", "cd", None),
                  ("continue", "ef", (200, 0, 0, 255))]
        run_script(ws, pixmap, script)
        run_script(*old[:2], script)
        queue = driver.offscreen_queue(pixmap)
        assert [type(c).__name__ for c in queue] == [
            "SFillCommand", "BitmapCommand", "BitmapCommand"]
        assert queue.commands[1].dest == Rect(1, 2, 5 * ADVANCE - 1, 7)
        assert queue.stats["added"] == 8 and queue.stats["merged"] == 5
        assert queue_state(queue) == queue_state(
            old[2].offscreen_queue(old[1]))

    def test_text_over_undescribed_pixels_taints_per_glyph(self):
        # The fill covers glyph 0 only: glyphs 1-2 taint their own
        # cells (not the blank columns between them) and go out as RAW.
        (ws, pixmap, driver), old = pair(
            lambda: THINCDriver(QueueSink(), compress_raw=False))
        script = [("fill", "pixmap", Rect(0, 0, 6, PH), (0, 0, 0, 255)),
                  ("text", "pixmap", 0, 4, "abc", (9, 9, 9, 255))]
        for rig_ws, rig_pm in ((ws, pixmap), old[:2]):
            run_script(rig_ws, rig_pm, script)
            rig_ws.copy_area(rig_pm, rig_ws.screen, rig_pm.bounds, 0, 0)
        queue = driver.offscreen_queue(pixmap)
        assert queue.tainted == Region([Rect(6, 4, 5, 7), Rect(12, 4, 5, 7)])
        assert driver.stats["raw_fallbacks"] > 0
        assert driver.stats == old[2].stats
        assert sunk(driver) == sunk(old[2])


def full_rig(ws_class):
    loop = EventLoop()
    conn = Connection(loop, LAN_DESKTOP)
    server = THINCServer(loop, W, H)
    ws = ws_class(W, H, driver=server.driver, clock=loop.clock)
    server.attach_client(conn)
    client = THINCClient(loop, conn)
    stream, sunk = bytearray(), []
    write, submit = conn.down.write, server.submit

    def tee(data):
        stream.extend(data)
        write(data)

    def tap(command):
        sunk.append(command)
        submit(command)

    conn.down.write, server.submit = tee, tap
    return loop, ws, client, stream, sunk


class TestEndToEnd:
    @given(scripts, rects)
    @settings(max_examples=40, deadline=None)
    def test_wire_bytes_and_client_pixels(self, script, src_rect):
        results = []
        for ws_class in (WindowServer, PerGlyphWindowServer):
            loop, ws, client, stream, sunk = full_rig(ws_class)
            # The per-glyph rig's oracle folds its lines; ours is as sunk.
            after, folded = (line_folder(sunk) if ws_class is not WindowServer
                             else (lambda line: None, sunk))
            pixmap = ws.create_pixmap(PW, PH)
            ws.fill_rect(ws.screen, ws.screen.bounds, (250, 250, 250, 255))
            after(False)
            run_script(ws, pixmap, script, after)
            ws.set_clip(None)
            ws.copy_area(pixmap, ws.screen, src_rect, 3, 2)
            after(False)
            ws.draw_text(ws.screen, 4, 30, "on screen", (0, 0, 90, 255))
            after(True)
            loop.run_until_idle()
            assert client.fb.same_as(ws.screen.fb)
            results.append((len(stream), client.fb.data.tobytes(),
                            ws.driver.stats["driver_ops"],
                            described(folded)))
        (new_bytes, *new), (old_bytes, *old) = results
        assert old_bytes, "the tee saw no server->client bytes"
        assert new == old
        assert new_bytes <= old_bytes


def test_replayed_runs_rebuild_the_pixmap_exactly():
    ws = WindowServer(W, H, driver=THINCDriver(QueueSink(),
                                               compress_raw=False))
    pixmap = ws.create_pixmap(PW, PH)
    ws.fill_rect(pixmap, pixmap.bounds, (255, 255, 255, 255))
    for row, line in enumerate(["The quick brown fox", "jumps over", ""]):
        ws.draw_text(pixmap, 1, 1 + row * 9, line, (0, 0, 0, 255))
    ws.copy_area(pixmap, ws.screen, pixmap.bounds, 0, 0)
    replayed = Framebuffer(W, H)
    for command in ws.driver.sink.commands:
        command.apply(replayed)
    assert np.array_equal(replayed.data[:PH, :PW], pixmap.fb.data)
