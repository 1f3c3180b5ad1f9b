"""The command queue object (paper Section 4).

A command queue holds the protocol commands that describe the *current*
contents of a draw region, ordered by arrival time.  As new drawing
overwrites the region, commands that became irrelevant are evicted —
wholly or, for partial-class commands, clipped down to their
still-visible remainder — so the queue never accumulates stale work.

The same structure backs both THINC mechanisms built on it:

* one queue per offscreen region (Section 4.1), where it preserves
  drawing semantics until the region is copied onscreen, and
* the per-client command buffer (Section 5), where eviction is what
  keeps a congested connection from wasting bandwidth on outdated
  content (and is what drops video frames under backlog).

Invariant maintained at all times: replaying the queued commands in
arrival order onto the region's previous base content reproduces the
region's current contents.

Eviction keeps only what still describes the region, so a queue stays
short (tens of commands while a page loads offscreen, usually none in a
client buffer that flushes between adds).  It is therefore a plain
list: eviction, the copy path and delivery walk it in arrival order,
and clip fragments take the clipped original's place in it.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

from ..protocol.commands import Command, OverwriteClass
from ..region import Rect, Region
from . import sanitizer as _sanitizer

__all__ = ["CommandQueue"]


def _parts_of(run: Command, count: int, pitch: int) -> List[Rect]:
    """A run's *count* part rects: one width, *pitch* pixels apart."""
    x, y, width, height = run.dest.as_tuple()
    return [Rect(x + i * pitch, y, width - (count - 1) * pitch, height)
            for i in range(count)]


class CommandQueue:
    """An eviction-maintaining, arrival-ordered queue of commands."""

    def __init__(self):
        # Opt-in invariant checking (THINC_SANITIZE=1); None when off.
        self._sanitizer = _sanitizer.for_queue(self)
        self._commands: List[Command] = []
        self._next_seq = 0
        # Union of all opaque destinations ever added: the part of the
        # region whose contents the queue fully describes.
        self._opaque_cover = Region()
        # Areas where a transparent command blended over content the
        # queue does not describe; replay there is not faithful.
        self._tainted = Region()
        # Statistics for the ablation benches and the conservation
        # check: added - merged - evicted - clipped + fragments -
        # cleared is the queue's length plus what remove() took out.
        self.stats = {"added": 0, "evicted": 0, "clipped": 0,
                      "fragments": 0, "merged": 0, "cleared": 0}

    # -- inspection -------------------------------------------------------

    @property
    def commands(self) -> Sequence[Command]:
        return tuple(self._commands)

    def __len__(self) -> int:
        return len(self._commands)

    def __iter__(self) -> Iterator[Command]:
        return iter(self._commands)

    def __bool__(self) -> bool:
        return bool(self._commands)

    @property
    def opaque_cover(self) -> Region:
        """Region whose contents the queued commands fully describe."""
        return self._opaque_cover.copy()

    @property
    def tainted(self) -> Region:
        """Region where replay would not be faithful (see module doc)."""
        return self._tainted.copy()

    def total_wire_size(self) -> int:
        return sum(c.wire_size() for c in self._commands)

    def _position_of(self, command: Command) -> int:
        """Index of *command* (by identity); ValueError if not queued."""
        for idx, queued in enumerate(self._commands):
            if queued is command:
                return idx
        raise ValueError("command is not queued")

    # -- core operations ----------------------------------------------------

    def add(self, command: Command) -> Command:
        """Append a command, evicting or clipping what it overwrites.

        Returns the command instance actually stored, which differs from
        the argument when the command merged into its predecessor.
        """
        command.seq = self._next_seq
        self._next_seq += 1
        self.stats["added"] += 1
        san = self._sanitizer
        if san is not None:
            san.before_mutation(self, command)
        opaque = command.opaque_region
        if not opaque.is_empty:
            self._evict_under(opaque, command)
            self._opaque_cover = self._opaque_cover.union(opaque)
        elif not self._opaque_cover.contains_rect(command.dest):
            # A transparent command blending over content this queue does
            # not describe: mark the area as non-replayable.
            self._tainted.add(command.dest)
        stored = self._store(command)
        if san is not None:
            san.after_add(self, command, opaque)
        return stored

    def add_run(self, merged: Command, count: int, pitch: int) -> Command:
        """Add a run of adjacent transparent commands as their merge.

        *merged* is what adding its *count* parts (*pitch* pixels apart)
        one by one would have merged into — a line of glyph stipples.
        The queue ends up exactly as after those adds: same commands,
        sequence numbers, statistics and taint.
        """
        san = self._sanitizer
        if san is not None:
            replay = san.before_run(self, merged)
        merged.seq = self._next_seq
        self._next_seq += count
        self.stats["added"] += count
        self.stats["merged"] += count - 1
        if not self._opaque_cover.contains_rect(merged.dest):
            for part in _parts_of(merged, count, pitch):
                if not self._opaque_cover.contains_rect(part):
                    self._tainted.add(part)
        stored = self._store(merged)
        if san is not None:
            san.after_run(self, replay, merged, _parts_of(merged, count, pitch))
        return stored

    def _store(self, command: Command) -> Command:
        """Merge *command* into the queue's last command when adjacent,
        or append it."""
        commands = self._commands
        if commands:
            tail = commands[-1]
            merged = tail.try_merge(command)
            if merged is not None:
                merged.seq = tail.seq
                merged.realtime = tail.realtime or command.realtime
                merged.sched_floor = max(tail.sched_floor,
                                         command.sched_floor)
                commands[-1] = merged
                self.stats["merged"] += 1
                return merged
        commands.append(command)
        return command

    def _evict_under(self, opaque: Region, newcomer: Command) -> None:
        """Drop or clip queued commands the new opaque region overwrites.

        Regions that a still-buffered COPY command reads from are
        *pinned*: the commands producing those pixels must survive (and
        be replayed) even though newer content covers them, because the
        COPY executes first and needs them on the client framebuffer.
        The newcomer's own source counts too — an overlapping scroll
        must not evict the producers of the pixels it is about to read.
        """
        commands = self._commands
        if not commands:
            return
        pinned = Region([cmd.src_rect for cmd in (*commands, newcomer)
                         if getattr(cmd, "src_rect", None) is not None])
        if pinned:
            opaque = opaque.subtract(pinned)
            if opaque.is_empty:
                return
        bounds = opaque.bounds
        stats = self.stats
        kept: List[Command] = []
        for cmd in commands:
            dest = cmd.dest
            if not (bounds.overlaps(dest) and opaque.overlaps_rect(dest)):
                kept.append(cmd)
            elif cmd.overwrite_class is OverwriteClass.PARTIAL:
                visible = Region.from_rect(dest).subtract(opaque)
                if visible.is_empty:
                    stats["evicted"] += 1
                    continue
                fragments = cmd.clipped(list(visible))
                for frag in fragments:
                    frag.seq = cmd.seq
                    frag.realtime = cmd.realtime
                    frag.sched_floor = cmd.sched_floor
                kept.extend(fragments)
                stats["clipped"] += 1
                stats["fragments"] += len(fragments)
            elif opaque.contains_rect(dest):
                # COMPLETE and TRANSPARENT commands are evicted only when
                # fully covered by the new opaque content.
                stats["evicted"] += 1
            else:
                kept.append(cmd)
        self._commands = kept

    def drain(self) -> List[Command]:
        """Remove and return all commands in arrival order."""
        san = self._sanitizer
        if san is not None:
            san.before_mutation(self)
        out = self._commands
        self._commands = []
        if san is not None:
            san.after_mutation(self, "drain")
        return out

    def remove(self, command: Command) -> None:
        """Remove a specific command instance (used after delivery)."""
        san = self._sanitizer
        if san is not None:
            san.before_mutation(self)
        del self._commands[self._position_of(command)]
        if san is not None:
            san.after_mutation(self, "remove")

    def replace(self, command: Command, replacement: Command) -> None:
        """Swap a command for its unsent remainder in place.

        The remainder keeps the original's place in arrival order, so a
        replacement that was not produced by ``Command.split`` (which
        copies the metadata itself) inherits seq/realtime/floor here.
        """
        if replacement.seq == -1:
            replacement.seq = command.seq
            replacement.realtime = command.realtime
            replacement.sched_floor = command.sched_floor
        san = self._sanitizer
        if san is not None:
            san.before_mutation(self)
            san.check_replace(self, command, replacement, "replace")
        self._commands[self._position_of(command)] = replacement
        if san is not None:
            san.after_mutation(self, "replace")

    def clear(self) -> None:
        self.stats["cleared"] += len(self._commands)
        self._commands = []
        self._opaque_cover = Region()
        self._tainted = Region()
        if self._sanitizer is not None:
            self._sanitizer.reset()

    # -- offscreen support (Section 4.1) -----------------------------------

    def commands_for_copy(self, src_rect: Rect, dx: int, dy: int
                          ) -> List[Command]:
        """Commands reproducing *src_rect*'s content at a new location.

        Implements the paper's queue-to-queue copy: the commands that
        draw on the source region are *copied* (the source queue is left
        intact, since a region can source many copies), clipped to the
        copied rectangle, and translated to their new location.

        Only the replayable part of the source is returned — commands
        are clipped to ``src_rect`` minus :meth:`uncovered_region`, so
        callers cover the remainder with RAW pixel data read from the
        source drawable and the two never overlap.
        """
        replay = Region.from_rect(src_rect).subtract(
            self.uncovered_region(src_rect))
        if replay.is_empty:
            return []
        replay_rects = list(replay)
        out: List[Command] = []
        for cmd in self._commands:
            if cmd.dest.overlaps(src_rect):
                for part in cmd.clipped(replay_rects):
                    out.append(part.translated(dx, dy))
        return out

    def uncovered_region(self, src_rect: Rect) -> Region:
        """The part of *src_rect* that replay cannot faithfully rebuild.

        This is where the translation layer falls back to RAW: pixels
        never described by queued opaque commands, plus areas tainted by
        transparent commands blending over undescribed content.
        """
        missing = Region.from_rect(src_rect).subtract(self._opaque_cover)
        return missing.union(self._tainted.intersect_rect(src_rect))

    def __repr__(self) -> str:
        return f"CommandQueue({len(self._commands)} commands)"
