"""Simulation clock and discrete-event loop.

The whole testbed — applications, window server, thin-client protocol
stacks and the network — runs against one simulated clock.  Events are
(time, callback) pairs in a heap; ties break by scheduling order so
runs are fully deterministic.

A lane owner (``transport.Endpoint``) keeps ticketed events outside the
heap, behind one heap entry for its earliest; when that fires, it runs
later ones inline while ``claim`` allows, so they keep the order, times
and budget of heap events.  They must not run the loop themselves.
"""

from __future__ import annotations

import heapq
import itertools
import weakref
from typing import Callable, List, Optional, Tuple

__all__ = ["SimClock", "EventLoop"]


class SimClock:
    """Monotonically advancing simulated time, in seconds."""

    def __init__(self) -> None:
        self.now = 0.0

    def advance_to(self, t: float) -> None:
        """Move time forward to *t*; time never goes backwards."""
        if t < self.now:
            raise ValueError(f"time cannot move backwards ({t} < {self.now})")
        self.now = t


class EventLoop:
    """A deterministic discrete-event scheduler."""

    def __init__(self):
        self.clock = SimClock()
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        #: ``ticket()``: the sequence number an event scheduled now takes.
        self.ticket: Callable[[], int] = self._seq.__next__
        #: Lane owners; ``pending`` counts each one's ``held()`` events.
        self.owners: "weakref.WeakSet" = weakref.WeakSet()
        self.events_run = 0
        # The innermost run's time limit and what is left of its budget.
        self.horizon, self._budget = float("-inf"), 0

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
        """Number of events still scheduled, lane owners' included."""
        return len(self._heap) + sum(owner.held() for owner in self.owners)

    # -- events held outside the heap ------------------------------------

    def arm(self, time: float, seq: int, callback: Callable[[], None],
            replacing: Optional[int] = None) -> None:
        """Push a ticketed event, dropping the one ticketed *replacing*."""
        heap = self._heap
        if replacing is not None:
            heap[:] = [entry for entry in heap if entry[1] != replacing]
            heapq.heapify(heap)
        heapq.heappush(heap, (time, seq, callback))

    def claim(self, time: float, seq: int) -> bool:
        """Whether the held event ``(time, seq)`` runs now, before the heap
        top and within the horizon; if so, count the event just run (the
        firing callback's return counts the last) and move the clock."""
        if time > self.horizon:
            return False
        heap = self._heap
        if heap:
            top = heap[0]
            if time > top[0] or (time == top[0] and seq > top[1]):
                return False
        self._count()
        self.clock.advance_to(time)
        return True

    # -- running ------------------------------------------------------------

    def _count(self) -> None:
        self.events_run += 1
        self._budget -= 1
        if self._budget < 0:
            raise RuntimeError(
                "event budget exhausted; likely a scheduling loop")

    def _run(self, horizon: float, max_events: int) -> None:
        outer = self.horizon, self._budget
        self.horizon, self._budget = horizon, max_events
        heap = self._heap
        try:
            while heap and heap[0][0] <= horizon:
                when, _, callback = heapq.heappop(heap)
                self.clock.advance_to(when)
                callback()
                self._count()
        finally:
            self.horizon, self._budget = outer

    def run_until(self, t: float, max_events: int = 10_000_000) -> None:
        """Run all events with timestamp <= t, then set the clock to t."""
        self._run(t, max_events)
        self.clock.advance_to(t)

    def run_until_idle(self, max_time: float = float("inf"),
                       max_events: int = 10_000_000) -> float:
        """Run until no events remain (or *max_time*); returns end time."""
        self._run(max_time, max_events)
        return self.clock.now
