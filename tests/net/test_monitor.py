"""Tests for the packet monitor and its windowed queries."""

import random

import pytest

from repro.net import PacketMonitor


def trace():
    m = PacketMonitor()
    m.record(0.00, "client->server", 50)   # click
    m.record(0.10, "server->client", 1460)
    m.record(0.15, "server->client", 1460)
    m.record(0.30, "server->client", 500)
    m.record(2.00, "client->server", 50)   # next click
    m.record(2.20, "server->client", 900)
    return m


class TestAccounting:
    def test_total_bytes_all(self):
        assert trace().total_bytes() == 50 + 1460 + 1460 + 500 + 50 + 900

    def test_total_bytes_by_direction(self):
        m = trace()
        assert m.total_bytes("server->client") == 1460 + 1460 + 500 + 900
        assert m.total_bytes("client->server") == 100

    def test_total_bytes_windowed(self):
        m = trace()
        assert m.total_bytes("server->client", start=0.0, end=1.0) == 3420

    def test_len_and_clear(self):
        m = trace()
        assert len(m) == 6
        m.clear()
        assert len(m) == 0 and m.total_bytes() == 0


class TestTimestamps:
    def test_last_packet_before(self):
        m = trace()
        assert m.last_packet_time("server->client", before=1.0) == 0.30

    def test_none_when_no_match(self):
        m = trace()
        assert m.last_packet_time("client->server", before=-1) is None

    def test_marks(self):
        m = trace()
        m.mark(0.0, "page-1")
        m.mark(2.0, "page-2")
        assert m.marks == [(0.0, "page-1"), (2.0, "page-2")]


# -- the naive scans the bisect indexes must stay byte-identical with ------

def naive_total(m, direction=None, start=float("-inf"), end=float("inf")):
    return sum(r.size for r in m.records
               if (direction is None or r.direction == direction)
               and start <= r.time <= end)


def naive_last(m, direction=None, before=float("inf")):
    result = None
    for r in m.records:
        if (direction is None or r.direction == direction) \
                and r.time <= before:
            result = r.time
    return result


def random_trace(seed=0, n=400):
    """A seeded time-ordered trace with duplicate timestamps and both
    directions, as the transport produces."""
    rng = random.Random(seed)
    m = PacketMonitor()
    t = 0.0
    for _ in range(n):
        if rng.random() > 0.3:  # duplicates exercise the tie handling
            t += rng.random() * 0.05
        direction = rng.choice(["server->client", "client->server"])
        m.record(t, direction, rng.randrange(1, 1500))
        if rng.random() < 0.02:
            m.mark(t, "mark")
    return m


class TestIndexedQueriesMatchNaiveScans:
    DIRECTIONS = (None, "server->client", "client->server", "no-such-dir")

    def probes(self, m):
        times = [r.time for r in m.records]
        edges = [float("-inf"), 0.0, times[len(times) // 2],
                 times[len(times) // 2] + 1e-9, times[-1], float("inf")]
        return [(a, b) for a in edges for b in edges]

    def test_total_bytes(self):
        m = random_trace(seed=1)
        for d in self.DIRECTIONS:
            for start, end in self.probes(m):
                assert m.total_bytes(d, start=start, end=end) == \
                    naive_total(m, d, start, end)

    def test_last_packet_time(self):
        m = random_trace(seed=2)
        for d in self.DIRECTIONS:
            for before, _ in self.probes(m):
                assert m.last_packet_time(d, before=before) == \
                    naive_last(m, d, before)

    def test_out_of_order_record_raises(self):
        # The transport stamps records from the monotone loop clock, so
        # a record that goes back in time is a bug, refused like
        # SimClock.advance_to refuses it; the trace is left as it was.
        m = random_trace(seed=3, n=50)
        before = m.records
        with pytest.raises(ValueError):
            m.record(0.001, "server->client", 99)
        assert m.records == before
        m.record(before[-1].time, "client->server", 7)  # a tie is fine
        assert len(m) == 51

    def test_query_for_unrecorded_direction_leaves_no_index(self):
        m = random_trace(seed=6, n=20)
        assert m.total_bytes("no-such-dir") == 0
        assert m.last_packet_time("no-such-dir") is None
        assert m.rate("no-such-dir", 0.25, 1.0) == 0.0
        assert set(m._by_dir) == {"server->client", "client->server"}

    def test_records_keep_logging_order_across_directions(self):
        m = PacketMonitor()
        logged = [(0.5, "client->server", 3), (0.5, "server->client", 4),
                  (0.5, "client->server", 5), (0.7, "server->client", 6)]
        for t, d, n in logged:
            m.record(t, d, n)
        assert [(r.time, r.direction, r.size) for r in m.records] == logged

    def test_clear_resets_indexes(self):
        m = random_trace(seed=4, n=20)
        m.clear()
        m.record(1.0, "server->client", 10)
        assert m.total_bytes("server->client", start=0.5, end=1.5) == 10
        assert m.last_packet_time("server->client") == 1.0


class TestRates:
    def test_rate_matches_windowed_total(self):
        m = random_trace(seed=5)
        now = m.records[-1].time
        for window in (0.1, 0.25, 1.0):
            want = naive_total(m, "server->client",
                               now - window, now) * 8.0 / window
            assert m.rate("server->client", window, now) == want
