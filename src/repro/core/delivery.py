"""Per-client update delivery: push buffer + non-blocking flush.

THINC pushes updates to the client as they are generated (Section 5),
but a blind push would block the single-threaded window server whenever
the network backed up.  The delivery layer therefore:

* buffers commands in a :class:`~repro.core.command_queue.CommandQueue`,
  whose eviction semantics automatically discard content that was
  overwritten before it could be sent;
* flushes the buffer in SRSF order through a non-blocking writer,
  breaking large commands into smaller pieces *at flush time* (never in
  advance, so the system adapts to current conditions) and stopping at
  the first sign of back-pressure; and
* tracks recent input-event locations, marking updates that land near
  them as real-time so interactive feedback preempts bulk output.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Protocol, Tuple

from ..protocol import wire
from ..protocol.commands import Command, CopyCommand
from ..region import Rect
from .command_queue import CommandQueue
from .scheduler import SRSFScheduler

__all__ = ["ClientBuffer", "FlushResult", "REALTIME_RADIUS",
           "REALTIME_WINDOW"]

# Frame header bytes added around a command by the wire format, taken
# from the framing struct itself so the two cannot drift apart.
_FRAME_OVERHEAD = wire.FRAME_OVERHEAD

# A command is real-time when it overlaps a square of this half-width
# around an input event received within the last REALTIME_WINDOW seconds.
REALTIME_RADIUS = 48
REALTIME_WINDOW = 1.0


class Writer(Protocol):
    """The non-blocking socket interface the flush stage writes into."""

    def writable_bytes(self) -> int: ...

    def write(self, data: bytes) -> None: ...


class FlushResult:
    """Outcome of one flush period."""

    def __init__(self) -> None:
        self.bytes_written = 0
        self.commands_sent = 0
        self.commands_split = 0
        self.blocked = False

    def __repr__(self) -> str:
        state = "blocked" if self.blocked else "drained"
        return (f"FlushResult({self.commands_sent} cmds, "
                f"{self.bytes_written} B, {state})")


class ClientBuffer:
    """The per-client command buffer with SRSF scheduling."""

    def __init__(self, scheduler: Optional[SRSFScheduler] = None,
                 frame: Callable[[Command], bytes] = None):
        self.queue = CommandQueue()
        self.scheduler = scheduler or SRSFScheduler()
        # How a command becomes wire bytes (framing + encryption applied
        # by the session); defaults to the bare command encoding.
        self._frame = frame or (lambda cmd: cmd.encode())
        self._recent_inputs: List[Tuple[float, int, int]] = []
        self.stats = {"realtime_marked": 0, "floors_set": 0,
                      "commands_in": 0, "commands_out": 0,
                      "bytes_out": 0, "commands_split": 0}

    # -- input tracking ------------------------------------------------------

    def note_input(self, x: int, y: int, time: float) -> None:
        """Record an input event location for real-time marking."""
        self._recent_inputs.append((time, x, y))
        # Keep the list short; old events expire out of the window.
        cutoff = time - REALTIME_WINDOW
        self._recent_inputs = [(t, a, b) for (t, a, b)
                               in self._recent_inputs if t >= cutoff]

    def _realtime_region_hit(self, rect: Rect, now: float) -> bool:
        for t, x, y in self._recent_inputs:
            if now - t > REALTIME_WINDOW:
                continue
            zone = Rect(x - REALTIME_RADIUS, y - REALTIME_RADIUS,
                        2 * REALTIME_RADIUS, 2 * REALTIME_RADIUS)
            if zone.overlaps(rect):
                return True
        return False

    # -- buffering -----------------------------------------------------------

    def add(self, command: Command, now: float = 0.0) -> None:
        """Buffer a command, computing its dependency floor (Section 5)."""
        self.stats["commands_in"] += 1
        stored = self.queue.add(command)
        if stored is not command:
            # Merged into its predecessor.  The widened output rect can
            # overlap earlier commands the original did not, so the
            # merged command's floor must be re-derived.
            floor = self._dependency_floor(stored)
            if floor > stored.sched_floor:
                stored.sched_floor = floor
                stored.realtime = False  # dependants may not jump queues
                self.stats["floors_set"] += 1
            return
        floor = self._dependency_floor(command)
        if floor >= 0:
            command.sched_floor = floor
            self.stats["floors_set"] += 1
        elif self._realtime_region_hit(command.dest, now):
            # Only dependency-free commands may jump the queues.
            command.realtime = True
            self.stats["realtime_marked"] += 1

    def _dependency_floor(self, command: Command) -> int:
        """Highest queue of any earlier buffered command that must be
        delivered before *command*; -1 when there are none.

        An earlier command is a dependency when its output overlaps the
        newcomer (eviction keeps such survivors only when they must be
        drawn first: COMPLETE/TRANSPARENT overlaps, or producers pinned
        by a buffered COPY's source), when the newcomer is a COPY that
        reads pixels the earlier command produces, or when the earlier
        command is a COPY that reads pixels the newcomer will overwrite.
        """
        floor = -1
        src = command.src_rect if isinstance(command, CopyCommand) else None
        for other in self.queue:
            if other is command or other.seq >= command.seq:
                continue
            depends = other.dest.overlaps(command.dest)
            if not depends and src is not None:
                depends = other.dest.overlaps(src)
            if not depends:
                other_src = getattr(other, "src_rect", None)
                depends = (other_src is not None
                           and other_src.overlaps(command.dest))
            if depends:
                floor = max(floor, self.scheduler.effective_bucket(other))
        return floor

    # -- flushing ------------------------------------------------------------

    def flush(self, writer: Writer) -> FlushResult:
        """One flush period: commit commands until the writer would block.

        Follows the paper's two-stage handler: whole commands are
        committed while they fit; the first command that does not fit is
        split so its head fills the remaining room, the remainder is
        reformatted in place, and flushing stops.
        """
        result = FlushResult()
        for cmd in self.scheduler.order(self.queue.commands):
            avail = writer.writable_bytes()
            # Cheap size check first: framing (and possibly compressing)
            # a command that cannot fit would be wasted work every
            # flush period.
            if cmd.wire_size() + _FRAME_OVERHEAD <= avail:
                data = self._frame(cmd)
                if len(data) <= avail:
                    writer.write(data)
                    self.queue.remove(cmd)
                    result.bytes_written += len(data)
                    result.commands_sent += 1
                    self.stats["commands_out"] += 1
                    self.stats["bytes_out"] += len(data)
                    continue
            # Would block: try to break off a head that fits.  A banded
            # PNG payload is cut between bands already DEFLATEd, so its
            # head has an exact size and the first try always fits.  The
            # row-granular fallback sizes its head from the command's
            # *average* compressed bytes per row and only learns the
            # real size by compressing it: rows denser than the average
            # overshoot, and since nothing says by how much, halving
            # the budget (not trimming it) bounds the retries at four
            # rather than stalling the whole flush pipeline.  A one-row
            # head that overshoots ends them: no budget makes it
            # smaller, and a stalled socket would otherwise pay four
            # identical DEFLATEs per flush period.
            budget = max(avail - 16, 0)
            for _ in range(4):
                head, rest = cmd.split(budget)
                if rest is None:
                    break  # unsplittable: wait for more room
                head_data = self._frame(head)
                if len(head_data) <= avail:
                    writer.write(head_data)
                    self.queue.replace(cmd, rest)
                    result.bytes_written += len(head_data)
                    result.commands_split += 1
                    self.stats["commands_split"] += 1
                    self.stats["bytes_out"] += len(head_data)
                    break
                if head.dest.height == 1:
                    break
                budget //= 2
            result.blocked = True
            break
        return result

    def pending_commands(self) -> int:
        return len(self.queue)

    def pending_bytes(self) -> int:
        return self.queue.total_wire_size()
