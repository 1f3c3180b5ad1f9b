"""Tests for the client buffer: push delivery and non-blocking flush."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import Encoding
from repro.core import ClientBuffer
from repro.core.delivery import REALTIME_WINDOW
from repro.display import Framebuffer
from repro.protocol import (BitmapCommand, CopyCommand, RawCommand,
                            SFillCommand, decode_command)
from repro.region import Rect
from repro.workloads.web import _photo
from tests.helpers import assert_pixel_identical, deflate_spy, make_rig

RED = (255, 0, 0, 255)
GREEN = (0, 255, 0, 255)


class FakeWriter:
    """A writer with a fixed room per flush period, out of a socket
    buffer of *capacity* (by default, the room is the whole buffer)."""

    def __init__(self, room, capacity=None):
        self.room = room
        self._capacity = capacity or room
        self.chunks = []

    def writable_bytes(self):
        return self.room

    def capacity(self):
        return self._capacity

    def write(self, data):
        assert len(data) <= self.room
        self.room -= len(data)
        self.chunks.append(data)


def raw(rect, seed=0):
    rng = np.random.default_rng(seed)
    return RawCommand(rect, rng.integers(0, 256,
                                         (rect.height, rect.width, 4),
                                         dtype=np.uint8), Encoding.NONE)


class TestFlushBasics:
    def test_flush_sends_everything_when_room(self):
        buf = ClientBuffer()
        buf.add(SFillCommand(Rect(0, 0, 4, 4), RED))
        buf.add(SFillCommand(Rect(20, 0, 4, 4), GREEN))
        w = FakeWriter(10000)
        buf.flush(w)
        assert buf.stats["commands_out"] == len(w.chunks) == 2
        assert buf.pending_commands() == 0

    def test_flush_respects_srsf_order(self):
        buf = ClientBuffer()
        big = raw(Rect(0, 0, 64, 64), 1)
        buf.add(big)
        buf.add(SFillCommand(Rect(200, 0, 4, 4), RED))
        w = FakeWriter(10**6)
        buf.flush(w)
        first = decode_command(w.chunks[0])
        assert first.kind == "sfill"

    def test_blocked_flush_stops_and_resumes(self):
        buf = ClientBuffer()
        buf.add(SFillCommand(Rect(0, 0, 4, 4), RED))
        buf.add(raw(Rect(100, 100, 40, 40), 1))
        w = FakeWriter(30)  # room for the fill only
        buf.flush(w)
        assert buf.stats["commands_out"] == 1
        assert buf.pending_commands() >= 1
        w2 = FakeWriter(10**6)
        buf.flush(w2)
        assert buf.pending_commands() == 0

    def test_large_command_split_on_blockage(self):
        buf = ClientBuffer()
        cmd = raw(Rect(0, 0, 32, 32), 2)
        full_size = cmd.wire_size()
        buf.add(cmd)
        w = FakeWriter(full_size // 2)
        buf.flush(w)
        assert buf.stats["commands_split"] == 1
        assert buf.stats["bytes_out"] == len(w.chunks[0]) > 0
        # Remainder was reformatted in place, not re-queued at the back.
        assert buf.pending_commands() == 1
        remainder = next(iter(buf.queue))
        assert remainder.dest.height < 32

    def test_split_then_complete_reassembles_pixels(self):
        buf = ClientBuffer()
        cmd = raw(Rect(0, 0, 16, 16), 3)
        pixels = cmd.pixels.copy()
        buf.add(cmd)
        chunks = []
        for room in [cmd.wire_size() // 3 + 20] * 6:
            w = FakeWriter(room)
            buf.flush(w)
            chunks.extend(w.chunks)
            if buf.pending_commands() == 0:
                break
        fb = Framebuffer(16, 16)
        for chunk in chunks:
            decode_command(chunk).apply(fb)
        assert np.array_equal(fb.read_pixels(Rect(0, 0, 16, 16)), pixels)


class TestBandedSplit:
    """A multi-band PNG RAW is DEFLATEd once; flushing slices it."""

    def test_banded_head_is_framed_once_per_frame_written(self):
        """Exact head sizes: through a 256 KiB socket the retry loop
        never frames a head it has to throw away."""
        framed = []
        buf = ClientBuffer(
            frame=lambda cmd: framed.append(cmd) or cmd.encode())
        photo = _photo(500, 800, 4)
        buf.add(RawCommand(Rect(0, 0, 500, 800), photo))
        fb, written = Framebuffer(500, 800), 0
        while buf.pending_commands():
            w = FakeWriter(256 * 1024)
            split = buf.stats["commands_split"]
            buf.flush(w)
            assert len(w.chunks) == 1
            if buf.stats["commands_split"] > split:  # at most a band
                assert w.room < 64 * 1024            # of room unused
            written += len(w.chunks)
            for chunk in w.chunks:
                decode_command(chunk).apply(fb)
        assert written == len(framed) == 3
        assert np.array_equal(fb.read_pixels(Rect(0, 0, 500, 800)), photo)

    def _drain(self, buf, room, capacity, height):
        """Flush *buf* dry through fresh writers offering *room*, or the
        whole *capacity* after a period that wrote nothing (the socket
        drains); the decoded 200-pixel-wide image."""
        fb, offer = Framebuffer(200, height), room
        for _ in range(300):  # a stalled command fails, not hangs
            w = FakeWriter(offer, capacity)
            buf.flush(w)
            for chunk in w.chunks:
                decode_command(chunk).apply(fb)
            if not buf.pending_commands():
                return fb.read_pixels(Rect(0, 0, 200, height))
            offer = room if w.chunks else capacity
        raise AssertionError("the buffer never drained")

    def test_less_room_than_a_band_waits_for_one(self):
        """A socket that can hold a band, offering less than one right
        now: nothing is split or DEFLATEd; the command waits, then
        drains as band slices that re-DEFLATE one row each, and its
        last band, short of room too, waits to leave whole."""
        buf, photo = ClientBuffer(), _photo(200, 400, 4)  # three bands
        cmd = RawCommand(Rect(0, 0, 200, 400), photo)
        cmd.wire_size()  # prepared (DEFLATEd) before it is buffered
        buf.add(cmd)
        with deflate_spy() as fed:
            w = FakeWriter(4096, capacity=256 * 1024)
            buf.flush(w)
            assert w.chunks == [] and fed == []
            assert list(buf.queue) == [cmd]
            pixels = self._drain(buf, 44 * 1024, 256 * 1024, 400)
        assert buf.stats["commands_split"] == 2
        assert fed == [photo[0, :, :3].nbytes] * 2  # one opaque RGB row
        assert np.array_equal(pixels, photo)

    def test_socket_smaller_than_a_band_takes_the_fallback(self):
        """A 2 KiB socket never holds a band: waiting would stall for
        ever, so the row-granular split keeps it live."""
        buf, photo = ClientBuffer(), _photo(200, 300, 4)
        buf.add(RawCommand(Rect(0, 0, 200, 300), photo))
        assert np.array_equal(self._drain(buf, 2048, 2048, 300), photo)
        assert buf.stats["commands_split"] > 40  # ~2 KiB heads of 81 KB

    def test_photograph_is_deflated_about_once_over_a_lan(self):
        """The gain as a count (docs/PERF.md "PR 24", "PR 26"): bytes
        handed to DEFLATE while a 500x800 photograph is prepared and
        drained are its raw size plus one restarted row per split.
        Before row bands this was ~2.8x: once whole for the size, then
        once more per head, discards included."""
        loop, _, _, server, ws, client = make_rig(640, 900)
        loop.run_until_idle()
        photo = _photo(500, 800, 4)
        with deflate_spy() as fed:
            # Drawn offscreen and flipped, as the browser does: the
            # scan-line chunks merge into one RAW on the way onscreen.
            pixmap = ws.create_pixmap(500, 800)
            ws.put_image(pixmap, pixmap.bounds, photo)
            ws.copy_area(pixmap, ws.screen, pixmap.bounds, 64, 64)
            ws.free_pixmap(pixmap)
            loop.run_until_idle()
        splits = server.sessions[0].buffer.stats["commands_split"]
        assert splits >= 2
        rgb = photo[..., :3]  # opaque: the payload carries RGB rows
        assert sum(fed) == rgb.nbytes + splits * rgb[0].nbytes
        assert_pixel_identical(client, ws)


class TestEvictionThroughBuffer:
    def test_overwritten_updates_never_sent(self):
        buf = ClientBuffer()
        for i in range(10):
            buf.add(raw(Rect(0, 0, 16, 16), seed=i))
        assert buf.pending_commands() == 1

    def test_pending_bytes_tracks_queue(self):
        buf = ClientBuffer()
        cmd = SFillCommand(Rect(0, 0, 4, 4), RED)
        buf.add(cmd)
        assert buf.pending_bytes() == cmd.wire_size()


class TestDependencies:
    def test_transparent_floor_set(self):
        buf = ClientBuffer()
        buf.add(raw(Rect(0, 0, 64, 64), 1))  # large opaque base
        glyph = BitmapCommand(Rect(4, 4, 5, 7), np.ones((7, 5), bool),
                              RED, None)
        buf.add(glyph)
        assert glyph.sched_floor >= 1
        assert buf.stats["floors_set"] == 1

    def test_copy_depends_on_source_producer(self):
        buf = ClientBuffer()
        buf.add(raw(Rect(0, 0, 64, 64), 1))
        cp = CopyCommand(0, 0, Rect(200, 200, 16, 16))
        buf.add(cp)
        assert cp.sched_floor >= 1

    def test_independent_commands_have_no_floor(self):
        buf = ClientBuffer()
        buf.add(raw(Rect(0, 0, 16, 16), 1))
        other = SFillCommand(Rect(100, 100, 4, 4), RED)
        buf.add(other)
        assert other.sched_floor == -1

    def test_dependency_respected_in_flush_order(self):
        buf = ClientBuffer()
        base = raw(Rect(0, 0, 64, 64), 1)
        buf.add(base)
        glyph = BitmapCommand(Rect(4, 4, 5, 7), np.ones((7, 5), bool),
                              RED, None)
        buf.add(glyph)
        w = FakeWriter(10**7)
        buf.flush(w)
        kinds = [decode_command(c).kind for c in w.chunks]
        assert kinds.index("raw") < kinds.index("bitmap")

    def test_merged_command_inherits_the_floor_it_widened_into(self):
        """Two same-colour fills merge into one whose rect reaches over
        a buffered COPY's source, which neither fill touched alone: the
        merged fill takes the COPY's bucket as its floor and flushes
        after it, so the copy reads the image, not the fill."""
        buf = ClientBuffer()
        image = raw(Rect(0, 0, 64, 64), 1)
        buf.add(image)
        cp = CopyCommand(8, 8, Rect(100, 8, 16, 16))
        buf.add(cp)
        buf.add(SFillCommand(Rect(0, 16, 8, 8), RED))
        buf.add(SFillCommand(Rect(8, 16, 8, 8), RED))
        fill = next(c for c in buf.queue if c.kind == "sfill")
        assert fill.dest == Rect(0, 16, 16, 8)
        assert fill.sched_floor == buf.scheduler.effective_bucket(cp) == 9
        w = FakeWriter(10**7)
        buf.flush(w)
        sent = [decode_command(c) for c in w.chunks]
        kinds = [c.kind for c in sent]
        assert kinds.index("copy") < kinds.index("sfill")
        fb = Framebuffer(128, 64)
        for cmd in sent:
            cmd.apply(fb)
        assert np.array_equal(fb.read_pixels(Rect(100, 8, 16, 16)),
                              image.pixels[8:24, 8:24])


class TestRealtime:
    def test_update_near_recent_input_is_realtime(self):
        buf = ClientBuffer()
        buf.note_input(100, 100, time=1.0)
        cmd = SFillCommand(Rect(96, 96, 10, 10), RED)
        buf.add(cmd, now=1.1)
        assert cmd.realtime

    def test_far_update_is_not_realtime(self):
        buf = ClientBuffer()
        buf.note_input(100, 100, time=1.0)
        cmd = SFillCommand(Rect(400, 400, 10, 10), RED)
        buf.add(cmd, now=1.1)
        assert not cmd.realtime

    def test_stale_input_expires(self):
        buf = ClientBuffer()
        buf.note_input(100, 100, time=1.0)
        cmd = SFillCommand(Rect(96, 96, 10, 10), RED)
        buf.add(cmd, now=5.0)
        assert not cmd.realtime

    def test_dependent_command_not_promoted(self):
        buf = ClientBuffer()
        buf.note_input(10, 10, time=1.0)
        buf.add(raw(Rect(0, 0, 64, 64), 1), now=1.0)
        glyph = BitmapCommand(Rect(8, 8, 5, 7), np.ones((7, 5), bool),
                              RED, None)
        buf.add(glyph, now=1.0)
        assert not glyph.realtime  # has a dependency; must not jump

    def test_realtime_flushed_first(self):
        buf = ClientBuffer()
        buf.add(raw(Rect(200, 200, 30, 30), 1), now=0.0)
        buf.note_input(10, 10, time=1.0)
        button = SFillCommand(Rect(8, 8, 10, 10), RED)
        buf.add(button, now=1.0)
        w = FakeWriter(10**7)
        buf.flush(w)
        assert decode_command(w.chunks[0]).kind == "sfill"

    @given(st.lists(st.one_of(st.floats(0, 20), st.just(1e300)),
                    max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_expiry_matches_a_full_filter(self, times):
        """Input times come from clients, so they may skew or jump far
        ahead: the kept events are those a full filter of the whole
        list by the newest event's cutoff would keep."""
        buf, kept = ClientBuffer(), []
        for i, t in enumerate(times):
            buf.note_input(i, i, time=t)
            kept = [e for e in kept + [(t, i, i)]
                    if e[0] >= t - REALTIME_WINDOW]
            assert sorted(buf._recent_inputs) == sorted(kept)

    def test_far_future_input_does_not_pin_the_window(self):
        """One event from a far-future clock stays, but it does not
        stop the in-order events behind it from expiring."""
        buf = ClientBuffer()
        buf.note_input(0, 0, time=1e300)
        for i in range(2000):
            buf.note_input(5, 5, time=i * 0.01)
            buf.note_input(9, 9, time=i * 0.01 - 0.5)  # a skewed clock
        # Within 1.5 s of the newest cutoff: ~150 + ~100 of 4001 noted.
        assert len(buf._recent_inputs) < 300


class ChunkWriter:
    """A writer whose capacity arrives in random-sized chunks."""

    def __init__(self, rng):
        self.rng = rng
        self.room = 0
        self.chunks = []

    def refill(self):
        self.room += int(self.rng.integers(16, 3000))

    def writable_bytes(self):
        return self.room

    capacity = writable_bytes

    def write(self, data):
        assert len(data) <= self.room
        self.room -= len(data)
        self.chunks.append(data)


class TestDeliveryProperty:
    """Random command streams + random flush capacities stay correct."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_flush_reordering_preserves_final_pixels(self, seed):
        import numpy as np

        from repro.display import Framebuffer

        rng = np.random.default_rng(seed)
        buf = ClientBuffer()
        truth = Framebuffer(64, 48)
        writer = ChunkWriter(rng)

        def random_command():
            kind = rng.integers(0, 4)
            x, y = int(rng.integers(0, 48)), int(rng.integers(0, 32))
            w, h = int(rng.integers(1, 16)), int(rng.integers(1, 16))
            color = tuple(int(v) for v in rng.integers(0, 256, 3)) + (255,)
            if kind == 0:
                return SFillCommand(Rect(x, y, w, h), color)
            if kind == 1:
                return RawCommand(
                    Rect(x, y, w, h),
                    rng.integers(0, 256, (h, w, 4), dtype=np.uint8),
                    Encoding.NONE)
            if kind == 2:
                mask = rng.integers(0, 2, (h, w)).astype(bool)
                return BitmapCommand(Rect(x, y, w, h), mask, color, None)
            return CopyCommand(int(rng.integers(0, 16)),
                               int(rng.integers(0, 16)), Rect(x, y, w, h))

        client_fb = Framebuffer(64, 48)
        for _ in range(25):
            cmd = random_command()
            cmd.apply(truth)
            buf.add(cmd, now=0.0)
            # Interleave partial flushes with tiny capacities.
            if rng.random() < 0.5:
                writer.refill()
                buf.flush(writer)
        # Drain everything.
        for _ in range(300):
            if buf.pending_commands() == 0:
                break
            writer.refill()
            buf.flush(writer)
        assert buf.pending_commands() == 0
        for chunk in writer.chunks:
            decode_command(chunk).apply(client_fb)
        assert client_fb.same_as(truth)
