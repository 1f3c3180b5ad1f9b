"""The runtime queue sanitizer: catches real corruption, tolerates
every legal mutation, and the replay invariant it guards actually
holds under random workloads."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import sanitizer
from repro.core.command_queue import CommandQueue
from repro.core.sanitizer import SanitizerError
from repro.display import Framebuffer
from repro.protocol import (BitmapCommand, CompositeCommand, CopyCommand,
                            PFillCommand, RawCommand, SFillCommand)
from repro.region import Rect, Region

RED = (255, 0, 0, 255)
GREEN = (0, 255, 0, 255)
W, H = 64, 48


def sanitized_queue():
    """A CommandQueue that self-checks, regardless of THINC_SANITIZE."""
    queue = CommandQueue()
    queue._sanitizer = sanitizer.QueueSanitizer()
    return queue


def raw(rect, seed=0):
    rng = np.random.default_rng(seed)
    return RawCommand(rect, rng.integers(0, 256, (rect.height, rect.width, 4),
                                         dtype=np.uint8), False)


class TestCatchesCorruption:
    def test_missing_eviction_of_partial_command(self):
        q = sanitized_queue()
        q.add(raw(Rect(0, 0, 8, 8)))
        q._evict_under = lambda opaque, newcomer: None  # break eviction
        with pytest.raises(SanitizerError, match="stale"):
            q.add(SFillCommand(Rect(0, 0, 8, 8), RED))

    def test_missing_eviction_of_buried_complete_command(self):
        q = sanitized_queue()
        q.add(SFillCommand(Rect(0, 0, 8, 8), RED))
        q._evict_under = lambda opaque, newcomer: None
        with pytest.raises(SanitizerError, match="buried"):
            q.add(raw(Rect(0, 0, 8, 8)))

    def test_corrupted_opaque_cover(self):
        q = sanitized_queue()
        q.add(SFillCommand(Rect(0, 0, 8, 8), RED))
        q._opaque_cover = Region()  # lose the bookkeeping
        with pytest.raises(SanitizerError, match="opaque cover"):
            q._sanitizer.check(q, "test")

    def test_transparent_blend_without_taint_record(self):
        q = sanitized_queue()
        mask = np.ones((4, 4), dtype=bool)
        cmd = BitmapCommand(Rect(0, 0, 4, 4), mask, RED, None)
        cmd.seq = 0
        q._commands.append(cmd)  # sneak past add()'s taint bookkeeping
        with pytest.raises(SanitizerError, match="taint"):
            q._sanitizer.after_add(q, cmd, Region())

    def test_broken_arrival_order(self):
        q = sanitized_queue()
        q.add(SFillCommand(Rect(0, 0, 4, 4), RED))
        q.add(SFillCommand(Rect(8, 0, 4, 4), GREEN))
        q._commands.reverse()  # corrupt the ordering
        with pytest.raises(SanitizerError, match="arrival order"):
            q._sanitizer.check(q, "test")

    def test_replacement_must_be_a_remainder(self):
        q = sanitized_queue()
        cmd = q.add(SFillCommand(Rect(0, 0, 8, 8), RED))
        with pytest.raises(SanitizerError, match="remainder"):
            q.replace(cmd, SFillCommand(Rect(20, 20, 8, 8), GREEN))

    def test_pipe_tail_must_not_go_backwards(self):
        class Session:
            pass

        was = sanitizer.enabled()
        sanitizer.enable()
        try:
            session = Session()
            sanitizer.check_pipe_tail(session, 1.0)
            sanitizer.check_pipe_tail(session, 2.5)  # forward: fine
            with pytest.raises(SanitizerError, match="backwards"):
                sanitizer.check_pipe_tail(session, 1.5)
        finally:
            if not was:
                sanitizer.disable()


def glyph_run(x, count, pitch=6, width=5, fg=GREEN):
    """``add_run``'s arguments for *count* cells of *width* from *x*,
    *pitch* apart: (merged stipple, count, pitch)."""
    mask = np.zeros((7, (count - 1) * pitch + width), dtype=bool)
    for i in range(count):
        mask[:, i * pitch:i * pitch + width] = True
    return (BitmapCommand(Rect(x, 0, mask.shape[1], 7), mask, fg),
            count, pitch)


class TestRunInsertion:
    """Invariant 6: add_run must equal one add per part."""

    def test_run_that_does_not_chain_is_caught(self):
        # Three pixels apart: per-glyph adds would not have merged.
        q = sanitized_queue()
        with pytest.raises(SanitizerError, match="per-command adds"):
            q.add_run(*glyph_run(0, 2, pitch=8))

    def test_miscounted_statistics_are_caught(self):
        q = sanitized_queue()
        q.stats = {**q.stats, "merged": 7}
        q._store = lambda cmd: (q.stats.update(merged=0),
                                type(q)._store(q, cmd))[1]
        with pytest.raises(SanitizerError, match="per-command adds"):
            q.add_run(*glyph_run(0, 3))

    def test_missing_taint_is_caught(self):
        q = sanitized_queue()
        q.add(SFillCommand(Rect(0, 0, 8, 8), RED))  # covers glyph 0 only

        class Deaf(Region):
            def add(self, rect):
                pass

        q._tainted = Deaf()
        with pytest.raises(SanitizerError, match="taint"):
            q.add_run(*glyph_run(0, 2))

    def test_legal_runs_pass_and_merge_with_the_tail(self):
        q = sanitized_queue()
        q.add(SFillCommand(Rect(0, 0, 20, 8), RED))  # glyph 3 uncovered
        q.add_run(*glyph_run(0, 2))
        q.add_run(*glyph_run(12, 2))
        assert q.stats["added"] == 5
        assert q.stats["merged"] == 3
        assert len(q) == 2
        assert q.tainted == Region([Rect(18, 0, 5, 7)])
        assert q.add(SFillCommand(Rect(30, 0, 2, 2), RED)).seq == 5


class TestToleratesLegalMutations:
    def test_valid_replacement_passes(self):
        q = sanitized_queue()
        cmd = q.add(SFillCommand(Rect(0, 0, 8, 8), RED))
        q.replace(cmd, SFillCommand(Rect(0, 4, 8, 4), RED))
        assert len(q) == 1

    def test_cumulative_covers_legally_leave_complete_queued(self):
        # Two partial covers together bury the fill; eviction only owes
        # a drop when a *single* newcomer covers it. Replay still draws
        # the newer content over the fill, so this must not alarm.
        q = sanitized_queue()
        q.add(SFillCommand(Rect(0, 0, 8, 8), RED))
        q.add(raw(Rect(0, 0, 8, 4), 1))
        q.add(SFillCommand(Rect(0, 4, 8, 4), GREEN))
        assert len(q) == 3

    def test_copy_pin_survives_delivery_of_the_copy(self):
        q = sanitized_queue()
        q.add(raw(Rect(0, 0, 8, 8), 1))
        copy = q.add(CopyCommand(0, 0, Rect(16, 0, 8, 8)))
        # The fill overlaps the COPY's source: the raw survives, pinned.
        q.add(SFillCommand(Rect(0, 0, 8, 8), RED))
        assert any(c.kind == "raw" for c in q)
        # Delivering the COPY must not retroactively flag the stale raw.
        q.remove(copy)

    def test_transparent_merge_across_mask_gap(self):
        # Merged glyph runs widen a transparent dest across zero-bit gap
        # columns that draw nothing; replay stays faithful there.
        q = sanitized_queue()
        q.add(SFillCommand(Rect(0, 0, 32, 8), RED))
        mask = np.ones((8, 4), dtype=bool)
        q.add(BitmapCommand(Rect(0, 0, 4, 8), mask, GREEN, None))
        q.add(BitmapCommand(Rect(8, 0, 4, 8), mask, GREEN, None))

    def test_clear_resets_history(self):
        q = sanitized_queue()
        q.add(raw(Rect(0, 0, 8, 8)))
        q.add(CopyCommand(0, 0, Rect(16, 0, 8, 8)))
        q.clear()
        assert len(q) == 0
        q.add(SFillCommand(Rect(0, 0, 8, 8), RED))


def build_command(kind, rect, seed, cover):
    """A deterministic command of the given kind; COPY falls back to a
    fill when its source is not yet described (mirroring the RAW
    fallback the translation layer guarantees)."""
    rng = np.random.default_rng(seed)
    if kind == 0:
        color = tuple(int(v) for v in rng.integers(0, 256, 3)) + (255,)
        return SFillCommand(rect, color)
    if kind == 1:
        return raw(rect, seed)
    if kind == 2:
        tile = rng.integers(0, 256, (4, 4, 4), dtype=np.uint8)
        return PFillCommand(rect, tile)
    if kind == 3:
        mask = rng.integers(0, 2, (rect.height, rect.width)).astype(bool)
        return BitmapCommand(rect, mask, RED, GREEN)
    if kind == 4:
        mask = rng.integers(0, 2, (rect.height, rect.width)).astype(bool)
        return BitmapCommand(rect, mask, RED, None)
    if kind == 5:
        pixels = rng.integers(0, 256, (rect.height, rect.width, 4),
                              dtype=np.uint8)
        return CompositeCommand(rect, pixels)
    src = Rect(rect.x // 2, rect.y // 2, rect.width, rect.height)
    if cover.contains_rect(src):
        return CopyCommand(src.x, src.y, rect)
    color = tuple(int(v) for v in rng.integers(0, 256, 3)) + (255,)
    return SFillCommand(rect, color)


STEPS = st.lists(
    st.tuples(st.integers(0, 6),          # command kind (6 = COPY)
              st.integers(0, W - 9), st.integers(0, H - 9),
              st.integers(1, 8), st.integers(1, 8),
              st.integers(0, 999),        # pixel/mask seed
              st.integers(0, 19)),        # 18 = clear, 19 = drain
    max_size=40)


class TestReplayFidelityProperty:
    """A sanitized queue under random add/evict/clip/merge/drain keeps
    the Section 4 invariant: replaying the queue onto the delivered
    base reproduces the true screen wherever the queue claims to
    describe it (opaque cover minus taint)."""

    @staticmethod
    def assert_faithful(q, base, reference):
        fb = base.clone()
        for cmd in q:
            cmd.apply(fb)
        described = q.opaque_cover.subtract(q.tainted)
        for r in described:
            assert np.array_equal(fb.read_pixels(r),
                                  reference.read_pixels(r))

    @given(STEPS)
    @settings(max_examples=60, deadline=None)
    def test_random_mutations_stay_replayable(self, steps):
        q = sanitized_queue()
        reference = Framebuffer(W, H)   # the true screen contents
        base = Framebuffer(W, H)        # content already delivered
        for kind, x, y, w, h, seed, op in steps:
            if op == 19 and len(q):
                for cmd in q.drain():   # model delivery to the client
                    cmd.apply(base)
                continue
            if op == 18:
                q.clear()               # model a zoom/resize discard
                base = reference.clone()
                continue
            cmd = build_command(kind, Rect(x, y, w, h), seed,
                                q.opaque_cover)
            cmd.apply(reference)
            q.add(cmd)
            self.assert_faithful(q, base, reference)
        self.assert_faithful(q, base, reference)
