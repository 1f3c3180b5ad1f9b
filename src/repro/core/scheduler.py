"""Display command scheduling (paper Section 5).

THINC delivers buffered commands with a multi-queue
Shortest-Remaining-Size-First (SRSF) discipline, analogous to SRPT:
commands are sorted into queues by the number of bytes still needed to
deliver them, with queue boundaries at powers of two, and queues are
flushed in increasing order; within a queue, arrival order is kept.
A separate real-time queue preempts everything for updates issued in
direct response to user input.

Correct reordering requires that dependencies flush first.  The paper's
rule for transparent commands — place the command in the queue of the
*largest* command it overlaps — is implemented via a *scheduling floor*
stamped on the command (``sched_floor``): the effective queue index is
``max(natural queue, floor)``.  The same floor mechanism also covers two
cases the transparent rule alone would miss in this reproduction:

* an opaque command partially overlapping an earlier COMPLETE or
  TRANSPARENT command that eviction kept whole (the paper argues
  complete commands are always small enough for queue 0; video frames,
  which we route through the same buffer, are complete but large), and
* a COPY whose *source* pixels are produced by a still-buffered command.

Floors only need to reference queue indices, not command identities:
remaining sizes shrink monotonically, so a dependency can never migrate
to a later-flushed queue than the one recorded in the floor.
"""

from __future__ import annotations

from typing import List, Sequence

from ..protocol.commands import Command

__all__ = ["SRSFScheduler", "FIFOScheduler", "NUM_QUEUES", "BASE_SIZE"]

NUM_QUEUES = 10
BASE_SIZE = 64  # queue 0 holds commands of at most this many bytes


class SRSFScheduler:
    """Multi-queue SRSF ordering with a preempting real-time queue."""

    name = "srsf"

    def __init__(self):
        self.stats = {"orderings": 0, "realtime_preempted": 0}

    def bucket(self, size: int) -> int:
        """Queue index for a command of *size* remaining bytes."""
        if size <= BASE_SIZE:
            return 0
        # Powers-of-two boundaries: (base, 2*base] -> 1, etc.
        idx = (size - 1).bit_length() - (BASE_SIZE - 1).bit_length()
        return min(NUM_QUEUES - 1, max(0, idx))

    def effective_bucket(self, command: Command) -> int:
        return max(self.bucket(command.wire_size()), command.sched_floor)

    def order(self, commands: Sequence[Command]) -> List[Command]:
        """Flush order: real-time first, then (queue, arrival)."""
        realtime = [c for c in commands if c.realtime]
        normal = [c for c in commands if not c.realtime]
        realtime.sort(key=lambda c: c.seq)
        normal.sort(key=lambda c: (self.effective_bucket(c), c.seq))
        self.stats["orderings"] += 1
        self.stats["realtime_preempted"] += len(realtime)
        return realtime + normal


class FIFOScheduler:
    """Pure arrival-order delivery — the ablation baseline."""

    name = "fifo"

    def bucket(self, size: int) -> int:
        return 0

    def effective_bucket(self, command: Command) -> int:
        return 0

    def order(self, commands: Sequence[Command]) -> List[Command]:
        return sorted(commands, key=lambda c: c.seq)
