"""The per-event transport, kept verbatim as the oracle for its successor.

``repro.net`` once scheduled every segment as two heap events (its
delivery and its ack), each a fresh lambda.  It now keeps an endpoint's
deliveries and acks in two deques behind one heap entry and runs them
inline, and promises exactly the same simulated times, bytes, event
order, ``pending()``, ``events_run`` and ``run_until_idle`` results as
the code below.  ``tests/net/test_transport.py`` drives both side by
side.

Nothing here is used by ``src/repro``; do not "optimise" it.
"""

from __future__ import annotations

import heapq
import itertools
import random
import zlib
from collections import deque
from typing import Callable, List, Optional, Tuple

from repro.net.clock import SimClock
from repro.net.faults import (_MIN_RETRY, DOWN, UP, FaultPlan,
                              FaultyConnection, TraceRecord)
from repro.net.link import MSS, LinkParams
from repro.net.transport import Connection

Receiver = Callable[[bytes], None]


class EventLoop:
    """A deterministic discrete-event scheduler."""

    def __init__(self, clock: Optional[SimClock] = None):
        self.clock = clock or SimClock()
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self.events_run = 0

    @property
    def now(self) -> float:
        return self.clock.now

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run *callback* after *delay* seconds of simulated time."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        heapq.heappush(self._heap,
                       (self.clock.now + delay, next(self._seq), callback))

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Run *callback* at absolute simulated *time*."""
        if time < self.clock.now:
            raise ValueError("cannot schedule in the past")
        heapq.heappush(self._heap, (time, next(self._seq), callback))

    def pending(self) -> int:
        """Number of events still scheduled."""
        return len(self._heap)

    def run_until(self, t: float, max_events: int = 10_000_000) -> None:
        """Run all events with timestamp <= t, then set the clock to t."""
        count = 0
        while self._heap and self._heap[0][0] <= t:
            when, _, callback = heapq.heappop(self._heap)
            self.clock.advance_to(when)
            callback()
            count += 1
            self.events_run += 1
            if count > max_events:
                raise RuntimeError(
                    "event budget exhausted; likely a scheduling loop")
        self.clock.advance_to(t)

    def run_until_idle(self, max_time: float = float("inf"),
                       max_events: int = 10_000_000) -> float:
        """Run until no events remain (or *max_time*); returns end time."""
        count = 0
        while self._heap and self._heap[0][0] <= max_time:
            when, _, callback = heapq.heappop(self._heap)
            self.clock.advance_to(when)
            callback()
            count += 1
            self.events_run += 1
            if count > max_events:
                raise RuntimeError(
                    "event budget exhausted; likely a scheduling loop")
        return self.clock.now


class Endpoint:
    """One direction of a connection, seen from the sender's side."""

    def __init__(self, loop: EventLoop, link: LinkParams, label: str,
                 monitor=None, send_buffer: Optional[int] = None):
        self.loop = loop
        self.link = link
        self.label = label
        self.monitor = monitor
        # Bounded send buffer: this is what produces back-pressure.
        # Defaults to a realistic socket buffer, capped by the window.
        self.send_buffer_limit = send_buffer or min(link.tcp_window,
                                                    256 * 1024)
        self._buffer = bytearray()
        self._inflight = 0  # bytes sent but not yet acknowledged
        self._wire_free_at = 0.0  # when the serialiser is next idle
        self._deliver_free_at = 0.0  # in-order delivery horizon
        self._pump_scheduled = False
        self._receiver: Optional[Receiver] = None
        self.closed = False
        self.bytes_sent = 0
        self.segments_sent = 0
        self.segments_lost = 0
        self.bytes_dropped_closed = 0
        # Deterministic loss process per endpoint/direction.  Seeded
        # from a stable digest: ``hash()`` of a string is randomised
        # per process (PYTHONHASHSEED), which would make the "same"
        # simulation lose different segments on every run.
        self._loss_rng = random.Random(
            zlib.crc32(f"{label}|{link.name}".encode("utf-8")) & 0xFFFF)

    # -- wiring -----------------------------------------------------------

    def connect(self, receiver: Receiver) -> None:
        """Register the function that receives delivered segments."""
        self._receiver = receiver

    def disconnect(self) -> None:
        """Detach the receiver: delivered segments fall on the floor.

        Used when a session or client rebinds to a new connection; the
        abandoned endpoint may still have segments in flight, and those
        must not reach the new parser.
        """
        self._receiver = None

    def close(self) -> None:
        """Model an abrupt socket loss for this direction.

        Buffered and in-flight bytes are lost, nothing is delivered or
        acked any more, and the endpoint stops accepting writes
        (``writable_bytes`` reports 0, so well-behaved flush code sees
        permanent back-pressure rather than an exception).
        """
        self.closed = True
        self._buffer.clear()

    # -- sender API (non-blocking socket model) ------------------------------

    def writable_bytes(self) -> int:
        """How many bytes a write may currently enqueue without blocking."""
        if self.closed:
            return 0
        return max(0, self.send_buffer_limit - len(self._buffer))

    def write(self, data: bytes) -> None:
        """Enqueue bytes; raises if the caller ignored writable_bytes()."""
        if self.closed:
            # A dead socket swallows the write; the missing ack stream
            # is what the sender eventually notices.
            self.bytes_dropped_closed += len(data)
            return
        if len(data) > self.writable_bytes():
            raise BlockingIOError(
                f"{self.label}: write of {len(data)} bytes exceeds buffer "
                f"room {self.writable_bytes()}"
            )
        self._buffer.extend(data)
        self._schedule_pump()

    @property
    def queued_bytes(self) -> int:
        """Bytes buffered or in flight (0 means fully delivered)."""
        return len(self._buffer) + self._inflight

    # -- internal fluid machinery ---------------------------------------------

    def _schedule_pump(self) -> None:
        if not self._pump_scheduled:
            self._pump_scheduled = True
            delay = max(0.0, self._wire_free_at - self.loop.now)
            self.loop.schedule(delay, self._pump)

    def _pump(self) -> None:
        """Move segments from the buffer onto the wire, window allowing."""
        self._pump_scheduled = False
        window = self.link.effective_window
        while self._buffer and self._inflight + MSS <= window:
            segment = bytes(self._buffer[:MSS])
            del self._buffer[: len(segment)]
            self._inflight += len(segment)
            tx_time = len(segment) / self.link.bytes_per_second
            start = max(self.loop.now, self._wire_free_at)
            self._wire_free_at = start + tx_time
            arrive = self._wire_free_at + self.link.effective_rtt / 2
            if self.link.loss_rate > 0 and \
                    self._loss_rng.random() < self.link.loss_rate:
                # Lost in flight: detected and retransmitted roughly one
                # RTT later (fast-retransmit model); the window stays
                # occupied meanwhile, throttling the flow like real TCP.
                self.segments_lost += 1
                arrive += self.link.effective_rtt
            # TCP delivers in order: a retransmission head-of-line
            # blocks every later segment.
            arrive = max(arrive, self._deliver_free_at)
            self._deliver_free_at = arrive
            self.loop.schedule_at(arrive,
                                  lambda s=segment: self._deliver(s))
            self.bytes_sent += len(segment)
            self.segments_sent += 1
        # If window-blocked, the ack path will reschedule us.

    def _deliver(self, segment: bytes) -> None:
        if self.closed:
            return
        if self.monitor is not None:
            self.monitor.record(self.loop.now, self.label, len(segment))
        if self._receiver is not None:
            self._receiver(segment)
        # The ack returns half an RTT later, freeing window space.
        self.loop.schedule(self.link.effective_rtt / 2,
                           lambda n=len(segment): self._acked(n))

    def _acked(self, n: int) -> None:
        self._inflight -= n
        if self._buffer:
            self._schedule_pump()


class FaultyEndpoint(Endpoint):
    """An :class:`Endpoint` whose delivery path honours a fault plan.

    Interception happens in ``_deliver`` — after the fluid sender model
    has done its bandwidth/window arithmetic — so faults shape *when and
    how* bytes arrive without disturbing how they are sent.  Arriving
    segments enter a FIFO hold queue whose head is tested against the
    plan: a stalled or lost head blocks everything behind it until its
    release time (TCP's head-of-line behaviour), so delivery order is
    preserved by construction.  Held segments stay un-acked, which
    throttles the sender's window exactly like a real stall would.
    """

    def __init__(self, loop: EventLoop, link: LinkParams, label: str,
                 monitor=None, send_buffer: Optional[int] = None,
                 plan: Optional[FaultPlan] = None, side: str = DOWN,
                 trace: Optional[List[TraceRecord]] = None):
        super().__init__(loop, link, label, monitor, send_buffer)
        self.plan = plan or FaultPlan()
        self.side = side
        self.trace = trace
        self._held: "deque[bytes]" = deque()
        self._drain_pending = False
        self._fault_rng = random.Random(
            zlib.crc32(f"{self.plan.seed}|{side}".encode("utf-8")))
        self.fault_stats = {"segments_stalled": 0, "segments_lost": 0,
                            "segments_corrupted": 0, "segments_dropped": 0}

    def _deliver(self, segment: bytes) -> None:
        if self.closed:
            self.fault_stats["segments_dropped"] += 1
            return
        self._held.append(segment)
        if not self._drain_pending:
            self._drain()

    def _drain(self) -> None:
        self._drain_pending = False
        while self._held:
            if self.closed:
                self.fault_stats["segments_dropped"] += len(self._held)
                self._held.clear()
                return
            now = self.loop.now
            release = now
            until = self.plan.stalled_until(now, self.side)
            if until > now:
                self.fault_stats["segments_stalled"] += 1
                release = until
            else:
                rate = self.plan.loss_rate_at(now, self.side)
                if rate > 0.0 and self._fault_rng.random() < rate:
                    # Head lost inside the burst: redelivered one
                    # retransmit-RTT later (and re-tested then — a long
                    # burst can drop it repeatedly).
                    self.fault_stats["segments_lost"] += 1
                    release = now + max(self.link.effective_rtt,
                                        _MIN_RETRY)
            if release > now:
                self._drain_pending = True
                self.loop.schedule(release - now, self._drain)
                return
            segment = self._held.popleft()
            corrupt = self.plan.corruption_at(now, self.side)
            if corrupt is not None \
                    and self._fault_rng.random() < corrupt.rate:
                segment = self._flip_bytes(segment, corrupt.flips)
                self.fault_stats["segments_corrupted"] += 1
            if self.trace is not None:
                self.trace.append((now, self.side, len(segment),
                                   zlib.crc32(segment)))
            super()._deliver(segment)

    def _flip_bytes(self, segment: bytes, flips: int) -> bytes:
        mutated = bytearray(segment)
        for _ in range(min(flips, len(mutated))):
            pos = self._fault_rng.randrange(len(mutated))
            mutated[pos] ^= self._fault_rng.randint(1, 255)
        return bytes(mutated)


class RefConnection(Connection):
    """A :class:`~repro.net.transport.Connection` over the endpoints
    above."""

    def _make_endpoint(self, loop, link, label, monitor, send_buffer):
        return Endpoint(loop, link, label, monitor, send_buffer)


class RefFaultyConnection(FaultyConnection):
    """A :class:`~repro.net.faults.FaultyConnection` over the faulty
    endpoints above."""

    def _make_endpoint(self, loop, link, label, monitor, send_buffer):
        side = DOWN if label == "server->client" else UP
        return FaultyEndpoint(loop, link, label, monitor, send_buffer,
                              plan=self.plan, side=side, trace=self._trace)
