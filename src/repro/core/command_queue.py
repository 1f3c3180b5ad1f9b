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

Spatial index: every queued command is registered in a uniform tile
grid under the tiles its ``dest`` touches, so add-time eviction and the
offscreen copy path consult only the commands whose tiles intersect the
area of interest instead of sweeping the whole queue.  Arrival order is
carried by a per-command position key (``_qorder``), which clip
fragments extend (so they sort exactly where the clipped original
stood) and which makes positional lookups a binary search.  The
``THINC_SANITIZE=1`` pass re-audits index/queue coherence after every
mutation (see :meth:`CommandQueue.audit_structures`).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..protocol.commands import Command, OverwriteClass
from ..region import Rect, Region
from . import sanitizer as _sanitizer

__all__ = ["CommandQueue", "TILE_SHIFT"]

#: log2 of the tile edge in pixels.  64-pixel tiles keep the grid small
#: (a 1024x768 screen is 16x12 tiles) while still splitting a busy
#: queue into localized buckets.
TILE_SHIFT = 6


def _qorder_of(command: Command) -> Tuple[int, ...]:
    return command._qorder  # type: ignore[attr-defined]


def _parts_of(run: Command, count: int, pitch: int) -> List[Rect]:
    """A run's *count* part rects: one width, *pitch* pixels apart."""
    x, y, width, height = run.dest.as_tuple()
    return [Rect(x + i * pitch, y, width - (count - 1) * pitch, height)
            for i in range(count)]


class _TileIndex:
    """Uniform tile grid mapping screen tiles to the commands on them.

    A command whose ``dest`` touches a tile is registered in that
    tile's bucket; the set of commands whose tiles intersect a rect is
    a superset of the commands whose pixels do (two rects sharing a
    pixel necessarily share the tile that pixel lies in), so the index
    can never cause a missed eviction — only skip guaranteed misses.
    """

    __slots__ = ("_tiles", "_keys_of")

    def __init__(self):
        self._tiles: Dict[Tuple[int, int], Set[Command]] = {}
        # id(command) -> (command, tile keys); the command reference
        # keeps ids stable while registered.
        self._keys_of: Dict[int, Tuple[Command, List[Tuple[int, int]]]] = {}

    def _keys(self, rect: Rect) -> List[Tuple[int, int]]:
        s = TILE_SHIFT
        tx1 = rect.x >> s
        tx2 = (rect.x + rect.width - 1) >> s
        ty1 = rect.y >> s
        ty2 = (rect.y + rect.height - 1) >> s
        return [(tx, ty)
                for ty in range(ty1, ty2 + 1)
                for tx in range(tx1, tx2 + 1)]

    def register(self, command: Command) -> None:
        keys = self._keys(command.dest)
        tiles = self._tiles
        for key in keys:
            bucket = tiles.get(key)
            if bucket is None:
                bucket = tiles[key] = set()
            bucket.add(command)
        self._keys_of[id(command)] = (command, keys)

    def unregister(self, command: Command) -> None:
        entry = self._keys_of.pop(id(command), None)
        if entry is None:
            return
        tiles = self._tiles
        for key in entry[1]:
            bucket = tiles.get(key)
            if bucket is not None:
                bucket.discard(command)
                if not bucket:
                    del tiles[key]

    def candidates_rect(self, rect: Rect) -> Set[Command]:
        out: Set[Command] = set()
        tiles = self._tiles
        for key in self._keys(rect):
            bucket = tiles.get(key)
            if bucket:
                out.update(bucket)
        return out

    def candidates(self, region: Region) -> Set[Command]:
        out: Set[Command] = set()
        tiles = self._tiles
        seen: Set[Tuple[int, int]] = set()
        for rect in region:
            for key in self._keys(rect):
                if key in seen:
                    continue
                seen.add(key)
                bucket = tiles.get(key)
                if bucket:
                    out.update(bucket)
        return out

    def clear(self) -> None:
        self._tiles.clear()
        self._keys_of.clear()

    def audit(self, commands: Sequence[Command]) -> Optional[str]:
        """Structural coherence check; returns a problem or None.

        Every queued command must be registered under exactly the tiles
        its dest touches, and the grid must hold nothing else.
        """
        listed = {id(c): c for c in commands}
        if set(self._keys_of) != set(listed):
            missing = [repr(c) for i, c in listed.items()
                       if i not in self._keys_of]
            stray = [repr(c) for i, (c, _k) in self._keys_of.items()
                     if i not in listed]
            return (f"tile index out of sync with the queue "
                    f"(unindexed: {missing}, stale: {stray})")
        for cid, (command, keys) in self._keys_of.items():
            expected = self._keys(command.dest)
            if sorted(keys) != sorted(expected):
                return (f"{command!r} registered under tiles {sorted(keys)} "
                        f"but its dest touches {sorted(expected)}")
            for key in keys:
                if command not in self._tiles.get(key, ()):
                    return f"{command!r} missing from tile bucket {key}"
        for key, bucket in self._tiles.items():
            if not bucket:
                return f"empty tile bucket {key} was not pruned"
            for command in bucket:
                entry = self._keys_of.get(id(command))
                if entry is None or key not in entry[1]:
                    return (f"tile bucket {key} holds unregistered "
                            f"{command!r}")
        return None


class CommandQueue:
    """An eviction-maintaining, arrival-ordered queue of commands."""

    def __init__(self, merge: bool = True):
        self.merge_enabled = merge
        # Opt-in invariant checking (THINC_SANITIZE=1); None when off.
        self._sanitizer = _sanitizer.for_queue(self)
        self._commands: List[Command] = []
        self._next_seq = 0
        self._index = _TileIndex()
        # Buffered commands that read pixels (COPYs): their sources pin
        # content during eviction; kept as an identity map so the pin
        # region never needs a whole-queue sweep.
        self._copy_srcs: Dict[int, Command] = {}
        # Union of all opaque destinations ever added: the part of the
        # region whose contents the queue fully describes.
        self._opaque_cover = Region()
        # Areas where a transparent command blended over content the
        # queue does not describe; replay there is not faithful.
        self._tainted = Region()
        # Statistics for the ablation benches.
        self.stats = {"added": 0, "evicted": 0, "clipped": 0, "merged": 0}

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

    # -- bookkeeping -------------------------------------------------------

    def _register(self, command: Command) -> None:
        self._index.register(command)
        if getattr(command, "src_rect", None) is not None:
            self._copy_srcs[id(command)] = command

    def _unregister(self, command: Command) -> None:
        self._index.unregister(command)
        self._copy_srcs.pop(id(command), None)

    def _position_of(self, command: Command) -> int:
        """Index of *command* in the queue; raises ValueError if absent.

        Queued commands carry a strictly increasing ``_qorder`` key, so
        the position is a binary search; foreign instances fall back to
        an identity scan (to preserve list.remove's error contract).
        """
        key = getattr(command, "_qorder", None)
        commands = self._commands
        if key is not None:
            idx = bisect_left(commands, key, key=_qorder_of)
            if idx < len(commands) and commands[idx] is command:
                return idx
        for idx, queued in enumerate(commands):
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
        if (not self.merge_enabled
                or merged.overwrite_class is not OverwriteClass.TRANSPARENT):
            for part in merged.clipped(_parts_of(merged, count, pitch)):
                stored = self.add(part)
            return stored
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
        """Merge *command* into the tail, or append it."""
        stored = self._try_merge_tail(command) if self.merge_enabled else None
        if stored is None:
            command._qorder = (command.seq,)  # type: ignore[attr-defined]
            self._commands.append(command)
            self._register(command)
            stored = command
        return stored

    def _evict_under(self, opaque: Region, newcomer: Command) -> None:
        """Drop or clip queued commands the new opaque region overwrites.

        Regions that a still-buffered COPY command reads from are
        *pinned*: the commands producing those pixels must survive (and
        be replayed) even though newer content covers them, because the
        COPY executes first and needs them on the client framebuffer.
        The newcomer's own source counts too — an overlapping scroll
        must not evict the producers of the pixels it is about to read.
        """
        pinned = Region()
        own_src = getattr(newcomer, "src_rect", None)
        if own_src is not None:
            pinned.add(own_src)
        for copy_cmd in self._copy_srcs.values():
            pinned.add(copy_cmd.src_rect)
        if pinned:
            opaque = opaque.subtract(pinned)
            if opaque.is_empty:
                return
        candidates = self._index.candidates(opaque)
        if not candidates:
            return
        # None never appears as a value: () means evict, a non-empty
        # tuple means replace with clip fragments; untouched candidates
        # are simply absent.
        decisions: Dict[int, Tuple[Command, ...]] = {}
        for cmd in candidates:
            if not opaque.overlaps_rect(cmd.dest):
                continue
            if cmd.overwrite_class is OverwriteClass.PARTIAL:
                visible = Region.from_rect(cmd.dest).subtract(opaque)
                if visible.is_empty:
                    self.stats["evicted"] += 1
                    decisions[id(cmd)] = ()
                    continue
                if visible.area == cmd.dest.area:
                    continue
                fragments = cmd.clipped(list(visible))
                order = cmd._qorder  # type: ignore[attr-defined]
                for pos, frag in enumerate(fragments):
                    frag.seq = cmd.seq
                    frag.realtime = cmd.realtime
                    frag.sched_floor = cmd.sched_floor
                    frag._qorder = order + (pos,)  # type: ignore[attr-defined]
                decisions[id(cmd)] = tuple(fragments)
                self.stats["clipped"] += 1
            else:
                # COMPLETE and TRANSPARENT commands are evicted only when
                # fully covered by the new opaque content.
                if opaque.contains_rect(cmd.dest):
                    self.stats["evicted"] += 1
                    decisions[id(cmd)] = ()
        if not decisions:
            return
        touched = sorted(
            (cmd for cmd in candidates if id(cmd) in decisions),
            key=_qorder_of, reverse=True)
        commands = self._commands
        for cmd in touched:
            idx = self._position_of(cmd)
            replacement = decisions[id(cmd)]
            self._unregister(cmd)
            for frag in replacement:
                self._register(frag)
            commands[idx:idx + 1] = replacement

    def _try_merge_tail(self, command: Command) -> Optional[Command]:
        """Merge *command* into the queue's last command when adjacent."""
        if not self._commands:
            return None
        tail = self._commands[-1]
        merged = tail.try_merge(command)
        if merged is None:
            return None
        merged.seq = tail.seq
        merged.realtime = tail.realtime or command.realtime
        merged.sched_floor = max(tail.sched_floor, command.sched_floor)
        merged._qorder = tail._qorder  # type: ignore[attr-defined]
        self._unregister(tail)
        self._commands[-1] = merged
        self._register(merged)
        self.stats["merged"] += 1
        return merged

    def drain(self) -> List[Command]:
        """Remove and return all commands in arrival order."""
        san = self._sanitizer
        if san is not None:
            san.before_mutation(self)
        out = self._commands
        self._commands = []
        self._index.clear()
        self._copy_srcs.clear()
        if san is not None:
            san.after_mutation(self, "drain")
        return out

    def remove(self, command: Command) -> None:
        """Remove a specific command instance (used after delivery)."""
        san = self._sanitizer
        if san is not None:
            san.before_mutation(self)
        del self._commands[self._position_of(command)]
        self._unregister(command)
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
        idx = self._position_of(command)
        replacement._qorder = command._qorder  # type: ignore[attr-defined]
        self._unregister(command)
        self._commands[idx] = replacement
        self._register(replacement)
        if san is not None:
            san.after_mutation(self, "replace")

    def clear(self) -> None:
        self._commands = []
        self._index.clear()
        self._copy_srcs.clear()
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
        candidates = self._index.candidates_rect(src_rect)
        if not candidates:
            return []
        replay_rects = list(replay)
        out: List[Command] = []
        for cmd in sorted(candidates, key=_qorder_of):
            if not cmd.dest.overlaps(src_rect):
                continue
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

    # -- diagnostics --------------------------------------------------------

    def audit_structures(self) -> Optional[str]:
        """Coherence check of the spatial index and auxiliary maps.

        Used by the THINC_SANITIZE pass after every mutation; returns a
        human-readable problem description, or None when coherent.
        """
        problem = self._index.audit(self._commands)
        if problem is not None:
            return problem
        expected_srcs = {id(c) for c in self._commands
                         if getattr(c, "src_rect", None) is not None}
        if set(self._copy_srcs) != expected_srcs:
            return "pinned-source map out of sync with the queue"
        last: Optional[Tuple[int, ...]] = None
        for cmd in self._commands:
            key = getattr(cmd, "_qorder", None)
            if key is None:
                return f"queued {cmd!r} has no position key"
            if last is not None and key <= last:
                return (f"position keys are not strictly increasing "
                        f"({last} then {key})")
            last = key
        return None

    def __repr__(self) -> str:
        return f"CommandQueue({len(self._commands)} commands)"
