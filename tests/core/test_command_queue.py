"""Tests for the command queue's eviction/merging/copy semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import Encoding
from repro.core import CommandQueue
from repro.display import Framebuffer
from repro.protocol import (BitmapCommand, CopyCommand, RawCommand,
                            SFillCommand)
from repro.region import Rect, Region

RED = (255, 0, 0, 255)
GREEN = (0, 255, 0, 255)
BLUE = (0, 0, 255, 255)
W, H = 48, 32


def raw(rect, seed=0):
    rng = np.random.default_rng(seed)
    return RawCommand(rect, rng.integers(0, 256, (rect.height, rect.width, 4),
                                         dtype=np.uint8), Encoding.NONE)


def replay(queue, size=(W, H)):
    fb = Framebuffer(*size)
    for cmd in queue:
        cmd.apply(fb)
    return fb


class TestOrderingAndSeq:
    def test_arrival_order_preserved(self):
        q = CommandQueue()
        a = q.add(SFillCommand(Rect(0, 0, 4, 4), RED))
        b = q.add(SFillCommand(Rect(10, 0, 4, 4), GREEN))
        assert [c.seq for c in q] == [a.seq, b.seq]
        assert a.seq < b.seq

    def test_drain_empties(self):
        q = CommandQueue()
        q.add(SFillCommand(Rect(0, 0, 4, 4), RED))
        out = q.drain()
        assert len(out) == 1 and len(q) == 0

    @pytest.mark.parametrize("empty", ["drain", "clear"])
    def test_drain_or_clear_then_refill(self, empty):
        q = CommandQueue()
        q.add(raw(Rect(0, 0, 8, 8), 1))
        q.add(CopyCommand(0, 0, Rect(16, 0, 8, 8)))
        getattr(q, empty)()
        assert len(q) == 0
        assert q.stats["cleared"] == (2 if empty == "clear" else 0)
        # The emptied COPY pins nothing: the refill's second RAW evicts
        # its first, and sequence numbers carry on.
        first = q.add(raw(Rect(0, 0, 8, 8), 2))
        second = q.add(raw(Rect(0, 0, 8, 8), 3))
        assert q.commands == (second,)
        assert (first.seq, second.seq) == (2, 3)
        assert q.stats["evicted"] == 1


class TestEviction:
    def test_clip_fragments_stand_where_the_original_stood(self):
        q = CommandQueue()
        truth = Framebuffer(W, H)
        a = raw(Rect(0, 0, 8, 8), 1)
        b = SFillCommand(Rect(20, 0, 4, 4), GREEN)
        hole = SFillCommand(Rect(2, 2, 4, 4), RED)
        q.add(a)
        a.realtime, a.sched_floor = True, 2
        q.add(b)
        q.add(hole)
        for cmd in (a, b, hole):
            cmd.apply(truth)
        fragments = q.commands[:-2]
        assert q.commands[-2:] == (b, hole)
        assert [f.dest for f in fragments] == list(
            Region.from_rect(a.dest).subtract(Region.from_rect(hole.dest)))
        assert {(f.kind, f.seq, f.realtime, f.sched_floor)
                for f in fragments} == {("raw", a.seq, True, 2)}
        assert (q.stats["clipped"], q.stats["fragments"]) == (1, 4)
        assert replay(q).same_as(truth)

    def test_a_buffered_copy_pins_its_producers(self):
        q = CommandQueue()
        producer = q.add(raw(Rect(0, 0, 8, 8), 1))
        copy = q.add(CopyCommand(0, 0, Rect(16, 0, 8, 8)))
        # The COPY runs first on the client and reads the producer's
        # pixels, so covering them must neither evict nor clip it.
        cover = q.add(raw(Rect(0, 0, 8, 8), 2))
        assert q.commands == (producer, copy, cover)
        assert q.stats["evicted"] == q.stats["clipped"] == 0

    def test_a_scroll_pins_what_it_reads(self):
        # An overlapping COPY covers rows it reads: their producer must
        # keep them, or replay copies pixels nothing drew.
        q = CommandQueue()
        truth = Framebuffer(W, H)
        for cmd in (raw(Rect(0, 0, 8, 16), 1),
                    CopyCommand(0, 0, Rect(0, 4, 8, 12))):
            cmd.apply(truth)
            q.add(cmd)
        assert replay(q).same_as(truth)

    def test_full_overwrite_evicts(self):
        q = CommandQueue()
        q.add(raw(Rect(0, 0, 8, 8), 1))
        q.add(raw(Rect(0, 0, 8, 8), 2))
        assert len(q) == 1
        assert q.stats["evicted"] == 1

    def test_partial_overwrite_clips_partial_commands(self):
        q = CommandQueue()
        q.add(raw(Rect(0, 0, 8, 8), 1))
        q.add(SFillCommand(Rect(0, 0, 8, 4), RED))
        # The raw command survives only below the fill.
        raws = [c for c in q if c.kind == "raw"]
        assert all(c.dest.y >= 4 for c in raws)
        assert sum(c.dest.area for c in raws) == 8 * 4

    def test_complete_commands_survive_partial_overlap(self):
        q = CommandQueue()
        q.add(SFillCommand(Rect(0, 0, 8, 8), RED))
        q.add(raw(Rect(0, 0, 4, 4), 1))
        kinds = [c.kind for c in q]
        assert kinds == ["sfill", "raw"]

    def test_complete_command_evicted_when_fully_covered(self):
        q = CommandQueue()
        q.add(SFillCommand(Rect(2, 2, 4, 4), RED))
        q.add(raw(Rect(0, 0, 10, 10), 1))
        assert [c.kind for c in q] == ["raw"]

    def test_transparent_commands_never_evict(self):
        q = CommandQueue()
        q.add(raw(Rect(0, 0, 8, 8), 1))
        q.add(BitmapCommand(Rect(0, 0, 8, 8), np.eye(8, dtype=bool), RED))
        assert len(q) == 2

    def test_transparent_evicted_when_covered(self):
        q = CommandQueue()
        q.add(BitmapCommand(Rect(2, 2, 4, 4), np.ones((4, 4), bool), RED))
        q.add(SFillCommand(Rect(0, 0, 10, 10), GREEN))
        assert [c.kind for c in q] == ["sfill"]

    def test_video_frames_overwrite_each_other(self):
        """Successive frames at one spot keep only the newest (drops)."""
        from repro.protocol import VideoFrameCommand
        from repro.video import yuv

        rgb = np.zeros((12, 16, 3), dtype=np.uint8)
        data = yuv.pack_yv12(*yuv.rgb_to_yv12(rgb))
        q = CommandQueue()
        for i in range(5):
            q.add(VideoFrameCommand(1, Rect(0, 0, 32, 24), 16, 12, data, i))
        assert len(q) == 1
        assert next(iter(q)).frame_no == 4


class TestReplayInvariant:
    """Replaying the queue matches replaying the full command history."""

    def _commands(self, rng):
        cmds = []
        for _ in range(12):
            kind = rng.integers(0, 4)
            x, y = int(rng.integers(0, W - 8)), int(rng.integers(0, H - 8))
            w, h = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            rect = Rect(x, y, w, h)
            if kind == 0:
                color = tuple(int(v) for v in rng.integers(0, 256, 3)) + (255,)
                cmds.append(SFillCommand(rect, color))
            elif kind == 1:
                cmds.append(raw(rect, seed=int(rng.integers(0, 999))))
            elif kind == 2:
                mask = rng.integers(0, 2, (h, w)).astype(bool)
                cmds.append(BitmapCommand(rect, mask, RED, GREEN))
            else:
                mask = rng.integers(0, 2, (h, w)).astype(bool)
                cmds.append(BitmapCommand(rect, mask, BLUE, None))
        return cmds

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_queue_replay_equals_history_replay(self, seed):
        rng = np.random.default_rng(seed)
        cmds = self._commands(rng)
        q = CommandQueue()
        truth = Framebuffer(W, H)
        for cmd in cmds:
            cmd.apply(truth)
            q.add(cmd)
        assert replay(q).same_as(truth)
        stats = q.stats
        assert len(q) == (stats["added"] - stats["merged"] - stats["evicted"]
                          - stats["clipped"] + stats["fragments"])
        # Clipping may split a command into at most 4 fragments, so the
        # queue can never grow past that bound on the history length.
        assert len(q) <= 4 * len(cmds)


class TestMerging:
    def test_scanline_chunks_merge(self):
        q = CommandQueue()
        base = np.arange(8 * 8 * 4, dtype=np.uint8).reshape(8, 8, 4)
        for y in range(0, 8, 2):
            q.add(RawCommand(Rect(0, y, 8, 2), base[y : y + 2], False))
        assert len(q) == 1
        assert next(iter(q)).dest == Rect(0, 0, 8, 8)
        assert q.stats["merged"] == 3

    def test_glyph_run_merges(self):
        q = CommandQueue()
        m = np.ones((7, 5), dtype=bool)
        for i in range(6):
            q.add(BitmapCommand(Rect(i * 6, 0, 5, 7), m, RED, None))
        assert len(q) == 1
        assert next(iter(q)).dest.width == 6 * 6 - 1

    def test_merge_returns_stored_command(self):
        q = CommandQueue()
        a = SFillCommand(Rect(0, 0, 4, 4), RED)
        b = SFillCommand(Rect(4, 0, 4, 4), RED)
        q.add(a)
        stored = q.add(b)
        assert stored is not b
        assert stored.dest == Rect(0, 0, 8, 4)


class TestOffscreenCopy:
    def test_copy_preserves_commands_and_translates(self):
        q = CommandQueue()
        q.add(SFillCommand(Rect(0, 0, 16, 16), RED))
        q.add(BitmapCommand(Rect(2, 2, 5, 7),
                            np.ones((7, 5), bool), BLUE, None))
        out = q.commands_for_copy(Rect(0, 0, 16, 16), 10, 10)
        assert {c.kind for c in out} == {"sfill", "bitmap"}
        assert all(c.dest.x >= 10 and c.dest.y >= 10 for c in out)
        # Source queue untouched (a region can source many copies).
        assert len(q) == 2

    def test_copy_clips_to_source_rect(self):
        q = CommandQueue()
        q.add(SFillCommand(Rect(0, 0, 16, 16), RED))
        out = q.commands_for_copy(Rect(4, 4, 4, 4), -4, -4)
        assert len(out) == 1
        assert out[0].dest == Rect(0, 0, 4, 4)

    def test_uncovered_region_reported(self):
        q = CommandQueue()
        q.add(SFillCommand(Rect(0, 0, 8, 16), RED))
        uncovered = q.uncovered_region(Rect(0, 0, 16, 16))
        assert uncovered.area == 8 * 16
        assert uncovered.bounds == Rect(8, 0, 8, 16)

    def test_transparent_over_uncovered_is_tainted(self):
        q = CommandQueue()
        q.add(BitmapCommand(Rect(0, 0, 4, 4), np.ones((4, 4), bool),
                            RED, None))
        # The blend landed on undescribed content: replay unfaithful.
        assert q.uncovered_region(Rect(0, 0, 4, 4)).area == 16
        assert not q.commands_for_copy(Rect(0, 0, 4, 4), 0, 0)

    def test_transparent_over_covered_is_replayable(self):
        q = CommandQueue()
        q.add(SFillCommand(Rect(0, 0, 8, 8), GREEN))
        q.add(BitmapCommand(Rect(0, 0, 4, 4), np.ones((4, 4), bool),
                            RED, None))
        assert q.uncovered_region(Rect(0, 0, 8, 8)).is_empty
        out = q.commands_for_copy(Rect(0, 0, 8, 8), 0, 0)
        assert {c.kind for c in out} == {"sfill", "bitmap"}

    def test_copy_replay_matches_pixels(self):
        """Replaying a copied queue reproduces the source pixels."""
        rng = np.random.default_rng(7)
        q = CommandQueue()
        src_fb = Framebuffer(24, 24)
        for cmd in [
            SFillCommand(Rect(0, 0, 24, 24), GREEN),
            raw(Rect(2, 2, 10, 10), 3),
            BitmapCommand(Rect(4, 4, 6, 6),
                          rng.integers(0, 2, (6, 6)).astype(bool), RED, None),
        ]:
            cmd.apply(src_fb)
            q.add(cmd)
        dst_fb = Framebuffer(24, 24)
        for cmd in q.commands_for_copy(Rect(2, 2, 12, 12), 6, 6):
            cmd.apply(dst_fb)
        src_block = src_fb.read_pixels(Rect(2, 2, 12, 12))
        dst_block = dst_fb.read_pixels(Rect(8, 8, 12, 12))
        assert np.array_equal(src_block, dst_block)


class TestWireAccounting:
    def test_total_wire_size(self):
        q = CommandQueue()
        a = q.add(SFillCommand(Rect(0, 0, 4, 4), RED))
        assert q.total_wire_size() == a.wire_size()

    def test_remove_and_replace(self):
        q = CommandQueue()
        a = q.add(SFillCommand(Rect(0, 0, 4, 4), RED))
        b = q.add(SFillCommand(Rect(20, 0, 4, 4), GREEN))
        q.remove(a)
        assert list(q) == [b]
        c = SFillCommand(Rect(20, 0, 2, 4), GREEN)
        q.replace(b, c)
        assert list(q) == [c]
        with pytest.raises(ValueError):
            q.remove(b)
        with pytest.raises(ValueError):
            q.replace(b, c)

    def test_replace_keeps_the_original_place(self):
        q = CommandQueue()
        a = q.add(SFillCommand(Rect(0, 0, 4, 4), RED))
        cmd = q.add(raw(Rect(0, 8, 32, 16), 3))
        b = q.add(SFillCommand(Rect(40, 0, 4, 4), GREEN))
        room = cmd.wire_size() // 2
        _head, remainder = cmd.split(room, room)
        q.replace(cmd, remainder)
        assert q.commands == (a, remainder, b)
        assert remainder.seq == cmd.seq
