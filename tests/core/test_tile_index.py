"""Tile-index coherence tests for the spatially indexed CommandQueue.

PR 3 gave the queue a uniform tile-grid index (``_TileIndex``) and
position keys (``_qorder``) so eviction, ``commands_for_copy``, and
``uncovered_region`` visit only candidate commands.  These tests drive
every mutation path — add (with eviction, clipping, and tail merging),
remove, replace, drain, clear — and assert after each step that
``CommandQueue.audit_structures()`` finds the index, the pinned-source
map, and the position keys exactly coherent with the queued commands.

A hypothesis property additionally checks the index's *superset
guarantee*: every queued command overlapping a probe rectangle must
appear among ``candidates_rect(probe)`` (the fast paths may visit
extra commands, never miss one).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CommandQueue
from repro.core.command_queue import TILE_SHIFT
from repro.protocol import (BitmapCommand, CopyCommand, RawCommand,
                            SFillCommand)
from repro.region import Rect

RED = (255, 0, 0, 255)
GREEN = (0, 255, 0, 255)
W, H = 256, 192  # spans multiple 64-px tiles in both axes


def raw(rect, seed=0):
    rng = np.random.default_rng(seed)
    return RawCommand(rect, rng.integers(0, 256, (rect.height, rect.width, 4),
                                         dtype=np.uint8))


def bitmap(rect, seed=0):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, (rect.height, rect.width), dtype=np.uint8)
    return BitmapCommand(rect, bits, RED, GREEN)


def ok(queue):
    problem = queue.audit_structures()
    assert problem is None, problem


class TestCoherenceThroughMutations:
    def test_add_plain(self):
        q = CommandQueue()
        for i in range(6):
            q.add(SFillCommand(Rect(40 * i, 8 * i, 40, 40), (i, i, i, 255)))
            ok(q)

    def test_add_with_eviction(self):
        q = CommandQueue(merge=False)
        q.add(raw(Rect(0, 0, 64, 64), 1))
        ok(q)
        # Complete cover of the first command: evicted, index must drop it.
        q.add(raw(Rect(0, 0, 64, 64), 2))
        ok(q)
        assert q.stats["evicted"] == 1 and len(q) == 1

    def test_add_with_clipping(self):
        q = CommandQueue(merge=False)
        q.add(raw(Rect(0, 0, 100, 100), 1))
        ok(q)
        # Partial cover: the raw command is clipped into fragments whose
        # tile registrations must replace the parent's.
        q.add(SFillCommand(Rect(0, 0, 100, 40), RED))
        ok(q)
        frags = [c for c in q if c.kind == "raw"]
        assert frags and all(c.dest.y >= 40 for c in frags)

    def test_add_with_tail_merge(self):
        q = CommandQueue()
        q.add(SFillCommand(Rect(0, 0, 32, 32), RED))
        ok(q)
        # Same colour, adjacent: merges with the tail; the merged
        # command's registration must cover the union footprint.
        q.add(SFillCommand(Rect(32, 0, 32, 32), RED))
        ok(q)
        assert q.stats["merged"] == 1 and len(q) == 1
        assert q._index.candidates_rect(Rect(60, 4, 2, 2))

    def test_copy_pins_tracked(self):
        q = CommandQueue(merge=False)
        q.add(raw(Rect(0, 0, 64, 64), 1))
        q.add(CopyCommand(0, 0, Rect(128, 0, 64, 64)))
        ok(q)
        # The pinned source protects the raw command from this cover.
        q.add(raw(Rect(0, 0, 64, 64), 2))
        ok(q)
        kinds = sorted(c.kind for c in q)
        assert kinds.count("raw") == 2

    def test_remove(self):
        q = CommandQueue(merge=False)
        cmds = [q.add(raw(Rect(70 * i, 0, 64, 64), i)) for i in range(3)]
        ok(q)
        q.remove(cmds[1])
        ok(q)
        q.remove(cmds[0])
        ok(q)
        assert len(q) == 1
        assert not q._index.candidates_rect(Rect(0, 0, 64, 64))

    def test_replace_with_split_remainder(self):
        q = CommandQueue(merge=False)
        cmd = q.add(raw(Rect(0, 0, 128, 64), 3))
        room = cmd.wire_size() // 2
        sent, remainder = cmd.split(room, room)
        q.replace(cmd, remainder)
        ok(q)
        assert q.commands[0] is remainder
        # The replaced original must be fully unregistered.
        for cands in q._index._tiles.values():
            assert cmd not in cands

    def test_drain_and_refill(self):
        q = CommandQueue()
        for i in range(4):
            q.add(raw(Rect(66 * i, 0, 64, 64), i))
        out = q.drain()
        ok(q)
        assert len(out) == 4 and len(q) == 0
        assert not q._index._tiles
        q.add(SFillCommand(Rect(0, 0, 64, 64), RED))
        ok(q)

    def test_clear(self):
        q = CommandQueue()
        q.add(raw(Rect(0, 0, 64, 64), 1))
        q.add(CopyCommand(0, 0, Rect(128, 0, 64, 64)))
        q.clear()
        ok(q)
        assert len(q) == 0 and not q._index._tiles

    def test_mixed_churn(self):
        q = CommandQueue()
        q.add(bitmap(Rect(10, 10, 50, 20), 1))
        ok(q)
        q.add(SFillCommand(Rect(0, 0, 128, 128), RED))
        ok(q)
        q.add(CopyCommand(0, 0, Rect(128, 64, 96, 96)))
        ok(q)
        q.add(raw(Rect(32, 32, 80, 80), 2))
        ok(q)
        survivors = q.drain()
        ok(q)
        assert survivors


class TestCandidateSuperset:
    @given(st.lists(st.tuples(st.integers(0, W - 1), st.integers(0, H - 1),
                              st.integers(1, 96), st.integers(1, 96)),
                    min_size=0, max_size=20),
           st.tuples(st.integers(0, W - 1), st.integers(0, H - 1),
                     st.integers(1, 96), st.integers(1, 96)))
    @settings(max_examples=100, deadline=None)
    def test_overlapping_commands_are_candidates(self, rect_tuples, probe_t):
        q = CommandQueue(merge=False)
        for k, (x, y, w, h) in enumerate(rect_tuples):
            q.add(SFillCommand(Rect(x, y, w, h),
                               (k % 251, (k * 5) % 251, 9, 255)))
        ok(q)
        probe = Rect(*probe_t)
        candidates = q._index.candidates_rect(probe)
        for cmd in q:
            if cmd.dest.overlaps(probe):
                assert cmd in candidates

    def test_tile_shift_matches_docs(self):
        # docs/PERF.md documents 64-px tiles; keep them in sync.
        assert 1 << TILE_SHIFT == 64
