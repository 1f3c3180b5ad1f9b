"""Tests for the THINC translation layer (virtual display driver)."""

import numpy as np
import pytest

from repro.core.server import ServerCostModel
from repro.core.translation import THINCDriver
from repro.display import Framebuffer, WindowServer, solid_pixels, xserver
from repro.display.driver import DisplayDriver, InputEvent, RecordingDriver
from repro.display.font import ADVANCE, GLYPH_HEIGHT, GLYPH_WIDTH
from repro.protocol.commands import BitmapCommand
from repro.protocol.compression import _BAND_BYTES
from repro.region import Rect
from tests.helpers import assert_pixel_identical, make_multi_rig, make_rig

RED = (255, 0, 0, 255)
GREEN = (0, 255, 0, 255)
BLUE = (0, 0, 255, 255)
WHITE = (255, 255, 255, 255)


def spy(monkeypatch, owner, name, pick):
    """Wrap ``owner.name``; returns the list it fills with
    ``pick(result, *args)``, one entry per call."""
    real, log = getattr(owner, name), []

    def wrapper(*args):
        result = real(*args)
        log.append(pick(result, *args))
        return result

    monkeypatch.setattr(owner, name, wrapper)
    return log


class CollectingSink:
    """An UpdateSink that records everything submitted."""

    def __init__(self):
        self.commands = []
        self.video_events = []
        self.inputs = []

    def submit(self, command):
        self.commands.append(command)

    def video_setup(self, stream):
        self.video_events.append(("setup", stream.stream_id))

    def video_move(self, stream):
        self.video_events.append(("move", stream.stream_id))

    def video_teardown(self, stream):
        self.video_events.append(("teardown", stream.stream_id))

    def note_input(self, event):
        self.inputs.append(event)

    def kinds(self):
        return [c.kind for c in self.commands]


@pytest.fixture
def rig():
    sink = CollectingSink()
    driver = THINCDriver(sink, compress_raw=False)
    ws = WindowServer(64, 48, driver=driver)
    return ws, driver, sink


class TestOneToOneMapping:
    """Section 4: translation is usually a direct mapping."""

    def test_fill_becomes_sfill(self, rig):
        ws, driver, sink = rig
        ws.fill_rect(ws.screen, Rect(0, 0, 8, 8), RED)
        assert sink.kinds() == ["sfill"]

    def test_tile_becomes_pfill(self, rig):
        ws, driver, sink = rig
        tile = solid_pixels(4, 4, GREEN)
        ws.fill_tiled(ws.screen, Rect(0, 0, 16, 16), tile)
        assert sink.kinds() == ["pfill"]

    def test_text_becomes_bitmaps(self, rig):
        ws, driver, sink = rig
        ws.draw_text(ws.screen, 2, 2, "ab", RED)
        assert set(sink.kinds()) == {"bitmap"}
        assert all(c.bg is None for c in sink.commands)

    def test_image_becomes_raw(self, rig):
        ws, driver, sink = rig
        ws.put_image(ws.screen, Rect(0, 0, 16, 16),
                     solid_pixels(16, 16, BLUE))
        assert set(sink.kinds()) == {"raw"}

    def test_screen_copy_becomes_copy(self, rig):
        ws, driver, sink = rig
        ws.fill_rect(ws.screen, Rect(0, 0, 8, 8), RED)
        ws.copy_area(ws.screen, ws.screen, Rect(0, 0, 8, 8), 20, 20)
        assert sink.kinds() == ["sfill", "copy"]
        assert sink.commands[1].dest == Rect(20, 20, 8, 8)

    def test_composite_over_becomes_composite(self, rig):
        ws, driver, sink = rig
        ws.composite(ws.screen, Rect(0, 0, 4, 4),
                     solid_pixels(4, 4, (255, 0, 0, 128)))
        assert sink.kinds() == ["composite"]

    def test_exotic_composite_falls_back_to_raw(self, rig):
        ws, driver, sink = rig
        ws.composite(ws.screen, Rect(0, 0, 4, 4),
                     solid_pixels(4, 4, (255, 0, 0, 128)), operator="plus")
        assert sink.kinds() == ["raw"]


class TestTextAggregation:
    """Section 4's second principle: a line of text ships as one stipple."""

    def test_visible_line_is_one_bitmap_priced_as_one_command(self, rig):
        ws, driver, sink = rig
        text = "make all"
        ws.draw_text(ws.screen, 2, 2, text, RED)
        (line,) = sink.commands
        assert line.kind == "bitmap" and line.bg is None
        assert line.dest == Rect(2, 2, len(text) * ADVANCE - 1, GLYPH_HEIGHT)
        assert driver.stats["driver_ops"] == len(text)
        assert driver.stats["onscreen_commands"] == 1
        # The same run drawn into a pixmap and replayed onscreen.
        pm = ws.create_pixmap(64, 16)
        ws.fill_rect(pm, pm.bounds, WHITE)
        ws.draw_text(pm, 2, 2, text, RED)
        sink.commands.clear()
        ws.copy_area(pm, ws.screen, line.dest, 2, 2)
        (replayed,) = [c for c in sink.commands if c.kind == "bitmap"]
        assert replayed.encode() == line.encode()
        cost = ServerCostModel().cost
        assert cost(line) == cost(replayed) == ServerCostModel.per_command

    @pytest.mark.parametrize("target", ["screen", "pixmap"])
    def test_visible_line_is_rasterised_once(self, rig, monkeypatch, target):
        """Work, not wall (docs/PERF.md): one ``render_text_mask`` per
        line, and that array is what the framebuffer stippled, what
        ``glyph_run`` got and what the shipped or queued BITMAP holds."""
        ws, driver, sink = rig
        rendered = spy(monkeypatch, xserver, "render_text_mask",
                       lambda mask, text: mask)
        stippled = spy(monkeypatch, Framebuffer, "stipple_rect",
                       lambda drawn, fb, rect, mask, *rest: mask)
        handed = spy(monkeypatch, THINCDriver, "glyph_run",
                     lambda _, driver, drawable, bounds, mask, *rest: mask)
        drawable = ws.screen if target == "screen" else ws.create_pixmap(
            64, 16)
        ws.draw_text(drawable, 2, 2, "make all", RED)
        (mask,) = rendered
        assert [m is mask for m in stippled + handed] == [True, True]
        (line,) = (sink.commands if target == "screen"
                   else driver.offscreen_queue(drawable).commands)
        assert isinstance(line, BitmapCommand)
        assert line.mask is mask, "the BITMAP holds a copy of the line mask"

    @pytest.mark.parametrize("target", ["screen", "pixmap"])
    def test_a_driver_that_rebuilds_the_mask_is_caught(self, rig,
                                                        monkeypatch, target):
        # A driver that rebuilds the line mask glyph by glyph, as
        # THINCDriver.glyph_run once did.
        run = THINCDriver.glyph_run

        def rebuilding(self, drawable, bounds, mask, count, fg):
            rebuilt = np.zeros_like(mask)
            for x in range(0, count * ADVANCE, ADVANCE):
                rebuilt[:, x:x + GLYPH_WIDTH] = mask[:, x:x + GLYPH_WIDTH]
            run(self, drawable, bounds, rebuilt, count, fg)

        monkeypatch.setattr(THINCDriver, "glyph_run", rebuilding)
        with pytest.raises(AssertionError, match="copy of the line mask"):
            self.test_visible_line_is_rasterised_once(rig, monkeypatch,
                                                      target)

    def test_clipped_text_arrives_glyph_piece_by_piece(self, rig):
        ws, driver, sink = rig
        ws.set_clip(Rect(0, 0, 64, 5))
        ws.draw_text(ws.screen, 2, 2, "abc", RED)
        assert [c.dest for c in sink.commands] == [
            Rect(2 + i * ADVANCE, 2, GLYPH_WIDTH, 3) for i in range(3)]
        assert driver.stats["onscreen_commands"] == 3


def noise(width, height, seed=3):
    return np.random.default_rng(seed).integers(
        0, 256, (height, width, 4), dtype=np.uint8)


class TestImageAggregation:
    """Section 4's second principle: scan-line image chunks aggregate.

    A 192-wide RGBA row is 768 B, so a 64 KiB band holds 85 rows: 80 of
    them in whole 8-row chunks."""

    BAND_ROWS = _BAND_BYTES // (192 * 4) // 8 * 8

    @pytest.fixture
    def big(self):
        sink = CollectingSink()
        driver = THINCDriver(sink)
        return WindowServer(256, 256, driver=driver), driver, sink

    def test_visible_image_is_one_raw_per_band(self, big):
        ws, driver, sink = big
        pixels = noise(192, 192)
        ws.put_image(ws.screen, Rect(8, 8, 192, 192), pixels)
        assert self.BAND_ROWS == 80
        assert [c.dest for c in sink.commands] == [
            Rect(8, 8, 192, 80), Rect(8, 88, 192, 80), Rect(8, 168, 192, 32)]
        assert all(c.kind == "raw" and c.pixels.nbytes <= _BAND_BYTES
                   for c in sink.commands)
        assert np.array_equal(
            np.concatenate([c.pixels for c in sink.commands]), pixels)
        assert driver.stats["driver_ops"] == 192 // 8
        assert driver.stats["onscreen_commands"] == 3

    def test_a_chunk_wider_than_a_band_ships_alone(self):
        sink = CollectingSink()
        ws = WindowServer(2200, 32, driver=THINCDriver(sink))
        ws.put_image(ws.screen, Rect(0, 0, 2100, 20), noise(2100, 20))
        assert [c.dest.height for c in sink.commands] == [8, 8, 4]

    def test_each_raw_is_priced_as_itself(self):
        loop, conn, mon, server, ws, client = make_rig(256, 256)
        sunk, submit = [], server.submit
        server.submit = lambda c: (sunk.append(c), submit(c))
        before = server.stats["cpu_time"]
        ws.put_image(ws.screen, Rect(8, 8, 192, 192), noise(192, 192))
        assert [c.dest.height for c in sunk] == [80, 80, 32]
        cost = ServerCostModel().cost
        assert server.stats["cpu_time"] - before == pytest.approx(
            sum(map(cost, sunk)))
        loop.run_until_idle()
        assert_pixel_identical(client, ws)

    def test_clipped_image_arrives_chunk_by_chunk(self, big):
        ws, driver, sink = big
        with ws.clip(Rect(0, 0, 256, 100)):
            ws.put_image(ws.screen, Rect(8, 8, 192, 192), noise(192, 192))
        assert [c.dest.height for c in sink.commands] == [8] * 11 + [4]
        sink.commands.clear()
        # Past the screen's edge: as if clipped.
        ws.put_image(ws.screen, Rect(100, 200, 192, 40), noise(192, 40))
        assert [c.dest for c in sink.commands] == [
            Rect(100, y, 156, 8) for y in range(200, 240, 8)]

    def test_offscreen_image_reaches_its_queue_chunk_by_chunk(self, big):
        ws, driver, sink = big
        pm = ws.create_pixmap(192, 192)
        ws.put_image(pm, pm.bounds, noise(192, 192))
        assert sink.commands == []
        queue = driver.offscreen_queue(pm)
        assert queue.stats["added"] == driver.stats["offscreen_commands"] \
            == 192 // 8

    def test_recording_driver_sees_one_put_image_per_chunk(self):
        driver = RecordingDriver()
        ws = WindowServer(256, 256, driver=driver)
        ws.put_image(ws.screen, Rect(8, 8, 192, 20), noise(192, 20))
        assert [(c.name, c.rect) for c in driver.calls] == [
            ("put_image", Rect(8, y, 192, min(8, 28 - y)))
            for y in (8, 16, 24)]

    def _client_pixels(self):
        # Images on an 8-pixel grid: the 5/8 viewport maps a chunk to
        # whole client rows, so band and chunk resampling agree.
        loop, mon, server, ws, clients = make_multi_rig(
            [None, (160, 160)], 256, 256)
        ws.fill_rect(ws.screen, ws.screen.bounds, WHITE)
        for seed, (x, y, w, h) in enumerate(
                [(8, 8, 192, 192), (48, 16, 200, 96), (0, 128, 256, 128),
                 (64, 64, 24, 160)]):
            ws.put_image(ws.screen, Rect(x, y, w, h), noise(w, h, seed))
        loop.run_until_idle()
        assert_pixel_identical(clients[0], ws)
        return [client.fb.data.copy() for client in clients]

    def test_client_pixels_match_the_per_chunk_path(self, monkeypatch):
        banded = self._client_pixels()
        monkeypatch.setattr(THINCDriver, "image_run", DisplayDriver.image_run)
        for got, want in zip(banded, self._client_pixels()):
            assert np.array_equal(got, want)


class TestOffscreenAwareness:
    """Section 4.1: semantic tracking of offscreen drawing."""

    def test_offscreen_drawing_sends_nothing(self, rig):
        ws, driver, sink = rig
        pm = ws.create_pixmap(32, 32)
        ws.fill_rect(pm, Rect(0, 0, 32, 32), RED)
        ws.draw_text(pm, 2, 2, "hi", BLUE)
        assert sink.commands == []
        assert driver.stats["offscreen_commands"] > 0

    def test_copy_out_replays_semantic_commands(self, rig):
        ws, driver, sink = rig
        pm = ws.create_pixmap(32, 32)
        ws.fill_rect(pm, Rect(0, 0, 32, 32), RED)
        ws.draw_text(pm, 2, 2, "hi", BLUE)
        ws.copy_area(pm, ws.screen, Rect(0, 0, 32, 32), 4, 4)
        kinds = set(sink.kinds())
        assert "sfill" in kinds and "bitmap" in kinds
        assert "raw" not in kinds  # no pixel fallback needed
        assert driver.stats["raw_fallbacks"] == 0

    def test_uncovered_offscreen_content_ships_as_raw(self, rig):
        ws, driver, sink = rig
        pm = ws.create_pixmap(32, 32)
        ws.fill_rect(pm, Rect(0, 0, 16, 32), RED)  # half described
        ws.copy_area(pm, ws.screen, Rect(0, 0, 32, 32), 0, 0)
        kinds = sink.kinds()
        assert "sfill" in kinds and "raw" in kinds
        assert driver.stats["raw_fallbacks"] == 1

    def test_offscreen_hierarchy_copies_commands(self, rig):
        """Pixmap-to-pixmap copies move semantics between queues."""
        ws, driver, sink = rig
        small = ws.create_pixmap(16, 16)
        big = ws.create_pixmap(32, 32)
        ws.fill_rect(small, Rect(0, 0, 16, 16), GREEN)
        ws.fill_rect(big, Rect(0, 0, 32, 32), WHITE)
        ws.copy_area(small, big, Rect(0, 0, 16, 16), 8, 8)
        ws.copy_area(big, ws.screen, Rect(0, 0, 32, 32), 0, 0)
        assert "raw" not in sink.kinds()
        # Source queue is intact: copy again elsewhere.
        ws.copy_area(big, ws.screen, Rect(0, 0, 32, 32), 32, 16)
        assert "raw" not in sink.kinds()

    def test_screen_to_pixmap_snapshots_pixels(self, rig):
        ws, driver, sink = rig
        ws.fill_rect(ws.screen, Rect(0, 0, 16, 16), RED)
        pm = ws.create_pixmap(16, 16)
        ws.copy_area(ws.screen, pm, Rect(0, 0, 16, 16), 0, 0)
        queue = driver.offscreen_queue(pm)
        assert queue is not None
        assert [c.kind for c in queue] == ["raw"]

    def test_destroy_drops_queue(self, rig):
        ws, driver, sink = rig
        pm = ws.create_pixmap(16, 16)
        ws.fill_rect(pm, Rect(0, 0, 4, 4), RED)
        assert driver.offscreen_queue(pm) is not None
        ws.free_pixmap(pm)
        assert driver.offscreen_queue(pm) is None

    def test_replay_pixel_exact_through_sink(self, rig):
        """Applying the sunk commands reproduces the server screen."""
        from repro.display import Framebuffer

        ws, driver, sink = rig
        pm = ws.create_pixmap(32, 24)
        ws.fill_rect(pm, Rect(0, 0, 32, 24), (10, 20, 30, 255))
        ws.put_image(pm, Rect(4, 4, 8, 8), solid_pixels(8, 8, GREEN))
        ws.draw_text(pm, 2, 14, "xyz", WHITE)
        ws.fill_rect(ws.screen, ws.screen.bounds, (0, 0, 0, 255))
        ws.copy_area(pm, ws.screen, Rect(0, 0, 32, 24), 10, 10)
        fb = Framebuffer(64, 48)
        fb.fill_rect(fb.bounds, (0, 0, 0, 255))
        for cmd in sink.commands:
            cmd.apply(fb)
        assert fb.same_as(ws.screen.fb)


class TestOffscreenAblation:
    def test_disabled_awareness_ships_raw_pixels(self):
        sink = CollectingSink()
        driver = THINCDriver(sink, compress_raw=False,
                             offscreen_awareness=False)
        ws = WindowServer(64, 48, driver=driver)
        pm = ws.create_pixmap(32, 32)
        ws.fill_rect(pm, Rect(0, 0, 32, 32), RED)
        ws.copy_area(pm, ws.screen, Rect(0, 0, 32, 32), 0, 0)
        assert sink.kinds() == ["raw"]
        assert driver.stats["raw_fallbacks"] == 1

    def test_disabled_awareness_still_pixel_correct(self):
        from repro.display import Framebuffer

        sink = CollectingSink()
        driver = THINCDriver(sink, compress_raw=False,
                             offscreen_awareness=False)
        ws = WindowServer(64, 48, driver=driver)
        pm = ws.create_pixmap(32, 32)
        ws.fill_rect(pm, Rect(0, 0, 32, 32), RED)
        ws.draw_text(pm, 2, 2, "ok", BLUE)
        ws.copy_area(pm, ws.screen, Rect(0, 0, 32, 32), 0, 0)
        fb = Framebuffer(64, 48)
        for cmd in sink.commands:
            cmd.apply(fb)
        block = Rect(0, 0, 32, 32)
        assert np.array_equal(fb.read_pixels(block),
                              ws.screen.fb.read_pixels(block))


class TestVideoAndInput:
    def test_video_lifecycle_reaches_sink(self, rig):
        from repro.video import yuv

        ws, driver, sink = rig
        stream = ws.video_create_stream("YV12", 16, 12, Rect(0, 0, 32, 24))
        rgb = np.zeros((12, 16, 3), dtype=np.uint8)
        ws.video_put_frame(stream, yuv.pack_yv12(*yuv.rgb_to_yv12(rgb)))
        ws.video_destroy_stream(stream)
        assert ("setup", stream.stream_id) in sink.video_events
        assert ("teardown", stream.stream_id) in sink.video_events
        assert sink.kinds() == ["vframe"]
        assert sink.commands[0].frame_no == 1

    def test_input_forwarded(self, rig):
        ws, driver, sink = rig
        ws.inject_input(InputEvent("mouse-click", 5, 5, 0.1))
        assert len(sink.inputs) == 1
