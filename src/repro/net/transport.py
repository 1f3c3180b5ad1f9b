"""A fluid-model TCP-like transport over the simulated network.

Each :class:`Connection` provides two half-duplex byte pipes between a
server endpoint and a client endpoint.  The model captures exactly the
effects the paper's evaluation turns on:

* **propagation latency** — every byte arrives one-way-delay after it
  is transmitted;
* **bandwidth** — the sender serialises at the link rate;
* **TCP windowing** — no more than ``tcp_window`` bytes may be in
  flight (unacknowledged); the effective throughput of the pipe is
  therefore ``min(bandwidth, window / RTT)``, which is what strangles
  the Korea site in Figures 4 and 7; and
* **back-pressure** — a bounded send buffer makes writes non-blocking
  at the API (``writable_bytes`` says how much more fits), which is the
  condition THINC's flush handlers probe.

Data is packetised in MSS-sized segments so the packet monitor sees a
realistic trace for slow-motion benchmarking.
"""

from __future__ import annotations

import random
import zlib
from collections import deque
from typing import Callable, Optional

from .clock import EventLoop
from .link import MSS, LinkParams

__all__ = ["Endpoint", "Connection"]

Receiver = Callable[[bytes], None]

_FIRING = -1  # Endpoint._armed while the lanes run (re-armed after)


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
        # Deliveries (time, seq, segment) and acks (time, seq, nbytes),
        # each in order, and the seq of the heap entry for the earlier.
        self._arrivals: "deque[tuple]" = deque()
        self._acks: "deque[tuple]" = deque()
        self._armed: Optional[int] = None
        loop.owners.add(self)

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
        buffer = self._buffer
        link = self.link
        # Each segment needs an MSS of window; all but the last are full.
        count = min(-(-len(buffer) // MSS),
                    (link.effective_window - self._inflight) // MSS)
        if count <= 0:
            return  # window-blocked: the ack path will reschedule us
        data = bytes(buffer[:count * MSS])
        del buffer[:len(data)]
        now, ticket = self.loop.now, self.loop.ticket
        rate, rtt = link.bytes_per_second, link.effective_rtt
        wire_free, deliver_free = self._wire_free_at, self._deliver_free_at
        for offset in range(0, len(data), MSS):
            segment = data[offset:offset + MSS]
            wire_free = max(now, wire_free) + len(segment) / rate
            arrive = wire_free + rtt / 2
            if link.loss_rate > 0 and \
                    self._loss_rng.random() < link.loss_rate:
                # Lost in flight: detected and retransmitted roughly one
                # RTT later (fast-retransmit model); the window stays
                # occupied meanwhile, throttling the flow like real TCP.
                self.segments_lost += 1
                arrive += rtt
            # TCP delivers in order: a retransmission head-of-line
            # blocks every later segment.
            deliver_free = arrive = max(arrive, deliver_free)
            self._arrivals.append((arrive, ticket(), segment))
        self._wire_free_at, self._deliver_free_at = wire_free, deliver_free
        self._inflight += len(data)
        self.bytes_sent += len(data)
        self.segments_sent += count
        self._arm()

    # -- the two lanes ----------------------------------------------------------

    def held(self) -> int:
        """Scheduled deliveries and acks no heap entry stands for."""
        armed = self._armed not in (None, _FIRING)
        return len(self._arrivals) + len(self._acks) - armed

    def _head(self) -> Optional[tuple]:
        """The earlier of the two lane heads, or None."""
        arrivals, acks = self._arrivals, self._acks
        if arrivals and (not acks or arrivals[0] < acks[0]):
            return arrivals[0]
        return acks[0] if acks else None

    def _arm(self) -> None:
        """Key the one heap entry to the earlier lane head."""
        head = self._head()
        armed = self._armed
        if head is None or armed == head[1]:
            return
        self._armed = head[1]
        self.loop.arm(head[0], head[1], self._run_lanes, replacing=armed)

    def _run_lanes(self) -> None:
        """Run the head, then each later item the loop claims."""
        self._armed = _FIRING
        acks = self._acks
        try:
            head = self._head()
            while True:
                if acks and head is acks[0]:
                    self._acked(acks.popleft()[2])
                else:
                    self._deliver(self._arrivals.popleft()[2])
                head = self._head()
                if head is None or not self.loop.claim(head[0], head[1]):
                    break
        finally:
            self._armed = None
            self._arm()

    def _deliver(self, segment: bytes) -> None:
        if self.closed:
            return
        loop = self.loop
        if self.monitor is not None:
            self.monitor.record(loop.clock.now, self.label, len(segment))
        if self._receiver is not None:
            self._receiver(segment)
        # The ack returns half an RTT later, freeing window space.
        self._acks.append((loop.clock.now + self.link.effective_rtt / 2,
                           loop.ticket(), len(segment)))
        if self._armed != _FIRING:  # a fault drain's event: re-key
            self._arm()

    def _acked(self, n: int) -> None:
        self._inflight -= n
        if self._buffer:
            self._schedule_pump()


class Connection:
    """A bidirectional client/server connection over one link."""

    def __init__(self, loop: EventLoop, link: LinkParams, monitor=None,
                 send_buffer: Optional[int] = None):
        self.loop = loop
        self.link = link
        self.down = self._make_endpoint(loop, link, "server->client",
                                        monitor, send_buffer)
        self.up = self._make_endpoint(loop, link, "client->server",
                                      monitor, send_buffer)

    def _make_endpoint(self, loop: EventLoop, link: LinkParams, label: str,
                       monitor, send_buffer: Optional[int]) -> Endpoint:
        """Endpoint factory; subclasses substitute instrumented ones."""
        return Endpoint(loop, link, label, monitor, send_buffer)

    def connect(self, client_receiver: Receiver,
                server_receiver: Receiver) -> None:
        self.down.connect(client_receiver)
        self.up.connect(server_receiver)

    def close(self) -> None:
        """Abruptly drop the connection in both directions."""
        self.down.close()
        self.up.close()

    @property
    def closed(self) -> bool:
        return self.down.closed or self.up.closed

    def idle(self) -> bool:
        """True when both directions have nothing queued or in flight."""
        return self.down.queued_bytes == 0 and self.up.queued_bytes == 0
