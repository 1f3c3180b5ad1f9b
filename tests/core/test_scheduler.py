"""Tests for SRSF scheduling (Section 5)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import Encoding
from repro.core import FIFOScheduler, SRSFScheduler
from repro.core.scheduler import NUM_QUEUES
from repro.protocol import RawCommand
from repro.region import Rect

RED = (255, 0, 0, 255)


def sized_raw(nbytes_hint, seq, x=0, y=0):
    """A raw command whose wire size grows with nbytes_hint."""
    side = max(1, int((nbytes_hint / 4) ** 0.5))
    rng = np.random.default_rng(seq)
    cmd = RawCommand(Rect(x, y, side, side),
                     rng.integers(0, 256, (side, side, 4), dtype=np.uint8),
                     Encoding.NONE)
    cmd.seq = seq
    return cmd


class TestBuckets:
    def test_small_commands_in_queue_zero(self):
        s = SRSFScheduler()
        assert s.bucket(1) == 0
        assert s.bucket(64) == 0

    def test_power_of_two_boundaries(self):
        s = SRSFScheduler()
        assert s.bucket(65) == 1
        assert s.bucket(128) == 1
        assert s.bucket(129) == 2

    def test_top_bucket_caps(self):
        s = SRSFScheduler()
        assert s.bucket(10**9) == NUM_QUEUES - 1 == 9

    def test_monotone(self):
        s = SRSFScheduler()
        buckets = [s.bucket(n) for n in range(1, 100000, 37)]
        assert buckets == sorted(buckets)


class TestOrdering:
    def test_smaller_commands_first(self):
        s = SRSFScheduler()
        big = sized_raw(50000, seq=0)
        small = sized_raw(20, seq=1, x=200)
        assert s.order([big, small]) == [small, big]

    def test_same_bucket_keeps_arrival_order(self):
        s = SRSFScheduler()
        a = sized_raw(20, seq=0)
        b = sized_raw(24, seq=1, x=100)
        assert s.order([b, a]) == [a, b]

    def test_realtime_preempts(self):
        s = SRSFScheduler()
        bulk = sized_raw(20, seq=0)
        rt = sized_raw(50000, seq=1, x=200)
        rt.realtime = True
        assert s.order([bulk, rt]) == [rt, bulk]

    def test_floor_pins_command_behind_dependency(self):
        s = SRSFScheduler()
        big = sized_raw(50000, seq=0)  # high bucket
        dep = sized_raw(20, seq=1, x=200)  # naturally bucket 0
        dep.sched_floor = s.effective_bucket(big)
        order = s.order([big, dep])
        assert order.index(big) < order.index(dep)

    @given(st.lists(st.tuples(st.integers(10, 200000), st.booleans()),
                    min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_order_is_permutation(self, specs):
        s = SRSFScheduler()
        cmds = []
        for i, (size, rt) in enumerate(specs):
            c = sized_raw(size, seq=i, x=(i * 16) % 400, y=(i * 16) // 400)
            c.realtime = rt
            cmds.append(c)
        out = s.order(cmds)
        assert sorted(id(c) for c in out) == sorted(id(c) for c in cmds)
        # All realtime commands precede all normal ones.
        flags = [c.realtime for c in out]
        assert flags == sorted(flags, reverse=True)


class TestFIFO:
    def test_pure_arrival_order(self):
        s = FIFOScheduler()
        big = sized_raw(50000, seq=0)
        small = sized_raw(20, seq=1, x=200)
        small.realtime = True
        assert s.order([small, big]) == [big, small]

    def test_bucket_always_zero(self):
        s = FIFOScheduler()
        assert s.bucket(10**9) == 0
