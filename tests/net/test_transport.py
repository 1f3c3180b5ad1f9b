"""Tests for the fluid TCP-like transport model."""

import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

from repro.net import (LAN_DESKTOP, MSS, Connection, EventLoop, LinkParams,
                       PacketMonitor)
from repro.net.faults import (DOWN, UP, Disconnect, FaultPlan,
                              FaultyConnection, LossBurst, Partition, Stall)

from . import reference_transport as ref


def make(link, **kw):
    loop = EventLoop()
    mon = PacketMonitor()
    conn = Connection(loop, link, monitor=mon, **kw)
    received = []
    conn.connect(lambda d: received.append((loop.now, d)),
                 lambda d: None)
    return loop, conn, mon, received


FAST = LinkParams("fast", bandwidth_bps=100e6, rtt=0.010)


class TestLinkParams:
    def test_throughput_bandwidth_limited(self):
        link = LinkParams("x", bandwidth_bps=8e6, rtt=0.001,
                          tcp_window=1 << 20)
        assert link.throughput == pytest.approx(1e6)

    def test_throughput_window_limited(self):
        link = LinkParams("x", bandwidth_bps=1e9, rtt=0.1,
                          tcp_window=256 * 1024)
        assert link.throughput == pytest.approx(256 * 1024 / 0.1)

    def test_relay_adds_rtt(self):
        relayed = FAST.with_relay(0.05)
        assert relayed.effective_rtt == pytest.approx(0.060)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkParams("x", bandwidth_bps=0, rtt=0.1)
        with pytest.raises(ValueError):
            LinkParams("x", bandwidth_bps=1e6, rtt=-1)
        with pytest.raises(ValueError):
            LinkParams("x", bandwidth_bps=1e6, rtt=0, tcp_window=0)


class TestDelivery:
    def test_data_arrives_intact_and_ordered(self):
        loop, conn, mon, received = make(FAST)
        payload = bytes(range(256)) * 20
        conn.down.write(payload)
        loop.run_until_idle()
        assert b"".join(d for _, d in received) == payload

    def test_latency_at_least_half_rtt(self):
        loop, conn, mon, received = make(FAST)
        conn.down.write(b"x" * 100)
        loop.run_until_idle()
        assert received[0][0] >= FAST.rtt / 2

    def test_bandwidth_paces_large_transfers(self):
        link = LinkParams("slow", bandwidth_bps=8e6, rtt=0.002)  # 1 MB/s
        loop, conn, mon, received = make(link)
        conn.down.write(b"x" * 100_000)  # 0.1 s of serialisation
        loop.run_until_idle()
        finish = received[-1][0]
        assert 0.095 <= finish <= 0.15

    def test_window_limits_throughput(self):
        # 1 Gbps link but tiny window over a long RTT.
        link = LinkParams("thin", bandwidth_bps=1e9, rtt=0.1,
                          tcp_window=16 * 1024)
        # Oversize the send buffer so the write itself does not block;
        # the in-flight window is what must pace delivery.
        loop, conn, mon, received = make(link, send_buffer=1 << 20)
        total = 160 * 1024  # ~10 windows -> ~10 RTTs
        conn.down.write(b"x" * total)
        loop.run_until_idle()
        finish = received[-1][0]
        assert finish >= 0.9  # ≥ ~9 round trips

    def test_segments_are_mss_sized(self):
        loop, conn, mon, received = make(FAST)
        conn.down.write(b"x" * (MSS * 3 + 10))
        loop.run_until_idle()
        sizes = [r.size for r in mon.records]
        assert sizes == [MSS, MSS, MSS, 10]


class TestBackPressure:
    def test_writable_bytes_shrinks_and_recovers(self):
        link = LinkParams("slow", bandwidth_bps=1e6, rtt=0.01,
                          tcp_window=8 * 1024)
        loop, conn, mon, received = make(link)
        ep = conn.down
        initial = ep.writable_bytes()
        ep.write(b"x" * initial)
        assert ep.writable_bytes() < MSS  # buffer nearly full
        loop.run_until_idle()
        assert ep.writable_bytes() == initial

    def test_overflow_write_raises(self):
        loop, conn, mon, received = make(FAST)
        room = conn.down.writable_bytes()
        with pytest.raises(BlockingIOError):
            conn.down.write(b"x" * (room + 1))

    def test_duplex_directions_independent(self):
        loop = EventLoop()
        conn = Connection(loop, FAST)
        down, up = [], []
        conn.connect(lambda d: down.append(d), lambda d: up.append(d))
        conn.down.write(b"server data")
        conn.up.write(b"client data")
        loop.run_until_idle()
        assert b"".join(down) == b"server data"
        assert b"".join(up) == b"client data"

    def test_idle_reflects_queues(self):
        loop, conn, mon, received = make(FAST)
        assert conn.idle()
        conn.down.write(b"x" * 10)
        assert not conn.idle()
        loop.run_until_idle()
        assert conn.idle()


# -- exactness: the lanes against the per-event transport ------------------
#
# ``reference_transport`` keeps the transport that scheduled every
# delivery and ack as its own heap event.  The property drives it and
# today's lane-running endpoints through the same script and demands the
# same observable history.  Every time below is a multiple of TICK and a
# full segment serialises in one TICK on the dyadic links, so segment
# arrivals, acks and foreign events collide exactly and only the
# sequence numbers order them.

TICK = 1 / 1024
IMPLS = {
    "reference": (ref.EventLoop, ref.RefConnection, ref.RefFaultyConnection),
    "lanes": (EventLoop, Connection, FaultyConnection),
}
LINKS = {
    "lan": LinkParams("lan", bandwidth_bps=MSS * 8 * 1024, rtt=2 * TICK),
    "wan": LinkParams("wan", bandwidth_bps=MSS * 8 * 256, rtt=64 * TICK),
    # A segment takes longer to serialise than half an RTT, so a drain
    # can queue an ack ahead of the next arrival.
    "slow": LinkParams("slow", bandwidth_bps=MSS * 8 * 256, rtt=2 * TICK),
    "lossy": LinkParams("lossy", bandwidth_bps=MSS * 8 * 1024,
                        rtt=4 * TICK, loss_rate=0.2),
    "window": LinkParams("window", bandwidth_bps=MSS * 8 * 4096,
                         rtt=16 * TICK, tcp_window=3 * MSS),
    "testbed": LAN_DESKTOP,
}

PAYLOAD = bytes(i % 251 for i in range(41 * MSS + 251))

ticks = st.integers(0, 24)
faults = st.one_of(
    st.builds(Stall, ticks.map(lambda k: k * TICK),
              st.integers(1, 48).map(lambda k: k * TICK),
              st.sampled_from([DOWN, UP])),
    st.builds(LossBurst, ticks.map(lambda k: k * TICK),
              st.integers(1, 48).map(lambda k: k * TICK),
              st.sampled_from([DOWN, UP]), st.sampled_from([0.5, 1.0])),
    st.builds(Partition, ticks.map(lambda k: k * TICK),
              st.integers(1, 32).map(lambda k: k * TICK)),
    st.builds(Disconnect, st.integers(1, 128).map(lambda k: k * TICK)),
)
# Foreign events: (tick, kind, argument).  "down" / "up" write argument
# bytes (up to the room left) on that side, "sample" only observes,
# "nest" runs the loop argument ticks ahead from inside its callback.
foreign = st.tuples(ticks, st.sampled_from(["down", "up", "sample", "nest"]),
                    st.sampled_from([0, 1, 10, MSS, 2 * MSS, 5 * MSS + 7,
                                     40 * MSS]))
# Driver steps: run_until some ticks ahead, run_until_idle up to some
# tick (None: no limit), or run_until_idle under a small event budget.
steps = st.lists(st.one_of(
    st.tuples(st.just("until"), st.integers(0, 16)),
    st.tuples(st.just("idle"), st.one_of(st.none(), st.integers(0, 64))),
    st.tuples(st.just("budget"), st.integers(1, 40))), min_size=1,
    max_size=6)
scripts = st.fixed_dictionaries({
    "link": st.sampled_from(sorted(LINKS)),
    "plan": st.one_of(st.none(), st.lists(faults, max_size=3)),
    "foreign": st.lists(foreign, max_size=14),
    "echo": st.sampled_from([0, 1, 3 * MSS]),
    "raise_at": st.one_of(st.none(), st.integers(1, 12)),
    "steps": steps,
})


def history(impl, script):
    """Everything observable about one run of *script* on *impl*."""
    loop_cls, conn_cls, faulty_cls = IMPLS[impl]
    loop = loop_cls()
    mon = PacketMonitor()
    link = LINKS[script["link"]]
    if script["plan"] is None:
        conn = conn_cls(loop, link, monitor=mon)
    else:
        conn = faulty_cls(loop, link, monitor=mon, record_trace=True,
                          plan=FaultPlan(script["plan"], seed=5))
    got = {"down": [], "up": []}
    samples = []
    written = [0]

    def write(ep, n):
        n = min(n, ep.writable_bytes())
        if n:
            start = written[0] % 251
            ep.write(PAYLOAD[start:start + n])
            written[0] += n

    def sample(tag):
        samples.append((tag, loop.now, len(got["down"]), len(got["up"]),
                        conn.down.queued_bytes, conn.down.writable_bytes(),
                        conn.up.queued_bytes, conn.up.writable_bytes(),
                        loop.pending()))

    def on_down(data):
        got["down"].append((loop.now, data))
        if len(got["down"]) == script["raise_at"]:
            raise KeyError("receiver gave up")
        if script["echo"]:
            # A client answers, and its answer is scheduled from inside
            # the lanes: a foreign event at a colliding time, too.
            write(conn.up, script["echo"])
            loop.schedule(TICK, lambda: sample("echo"))

    conn.connect(on_down, lambda data: got["up"].append((loop.now, data)))

    def fire(kind, arg):
        if kind == "sample":
            sample("foreign")
        elif kind == "nest":
            sample("nest")
            loop.run_until(loop.now + arg * TICK)
            sample("nested")
        else:
            write(conn.down if kind == "down" else conn.up, arg)

    for tick, kind, arg in script["foreign"]:
        loop.schedule_at(tick * TICK, lambda k=kind, a=arg: fire(k, a))
    outcomes = []
    for kind, arg in script["steps"] + [("idle", None)]:
        try:
            if kind == "until":
                result = loop.run_until(loop.now + arg * TICK)
            elif kind == "idle":
                result = loop.run_until_idle(
                    float("inf") if arg is None else arg * TICK)
            else:
                result = loop.run_until_idle(max_events=arg)
        except (KeyError, RuntimeError, ValueError) as exc:
            result = repr(exc)
        outcomes.append((result, loop.now, loop.events_run, loop.pending()))
    return {
        "received": got,
        "records": [(r.time, r.direction, r.size) for r in mon.records],
        "samples": samples,
        "outcomes": outcomes,
        "counters": [(ep.bytes_sent, ep.segments_sent, ep.segments_lost,
                      ep.queued_bytes, getattr(ep, "fault_stats", None))
                     for ep in (conn.down, conn.up)],
        "fault_trace": getattr(conn, "fault_trace", list)(),
    }


@given(script=scripts)
# A stall's drain queues an ack ahead of the armed arrival: the lane
# entry is re-keyed.
@example(script={"link": "slow", "plan": [Stall(0.0, 6 * TICK, DOWN)],
                 "foreign": [(0, "down", 2 * MSS)], "echo": 0,
                 "raise_at": None, "steps": [("until", 0)]})
def test_lanes_reproduce_the_per_event_transport(script):
    assert history("lanes", script) == history("reference", script)


def _differs(script):
    return history("lanes", script) != history("reference", script)


def _seq_blind_claim(self, time, seq):
    """EventLoop.claim, broken: equal times run inline whatever the
    sequence numbers say."""
    if time > self.horizon or (self._heap and time > self._heap[0][0]):
        return False
    self._count()
    self.clock.advance_to(time)
    return True


def _horizon_blind_claim(self, time, seq):
    """EventLoop.claim, broken: inline events ignore the run's horizon."""
    heap = self._heap
    if heap and (time, seq) > heap[0][:2]:
        return False
    self._count()
    self.clock.advance_to(time)
    return True


@pytest.mark.parametrize("broken", [_seq_blind_claim, _horizon_blind_claim])
def test_the_property_catches_a_seeded_break(monkeypatch, broken):
    monkeypatch.setattr(EventLoop, "claim", broken)
    # Finding one differing script is the point; shrinking it is not.
    find(scripts, _differs, settings=settings(
        max_examples=2000, database=None, phases=[Phase.generate]))
