"""Opt-in runtime sanitizer for the command queue and pipeline.

Section 4's correctness argument rests on an invariant nothing enforced
mechanically until now: *replaying the queued commands in arrival order
onto the region's previous base content reproduces the region's current
contents*.  With ``THINC_SANITIZE=1`` in the environment (or after
:func:`enable`), every :class:`~repro.core.command_queue.CommandQueue`
mutation re-checks the structural conditions that invariant decomposes
into, and every session's prepare-plane enqueue checks pipeline
ordering:

1. **arrival order** — queued sequence numbers are non-decreasing
   (clip fragments and merges inherit their ancestor's number);
2. **opaque-cover consistency** — every queued command's opaque
   footprint lies inside the queue's recorded opaque cover, and every
   transparent command's destination is covered or recorded as taint;
3. **no stale overlap surviving eviction** — a partial-class command
   may stay overlapped by newer opaque content only where a buffered
   COPY's source pinned it, and complete/transparent commands fully
   buried by newer opaque content (outside pins) must have been
   evicted;
4. **monotonic pipe tail** — per session, the plane's ready times
   never decrease, the one assumption of the FIFO that moves prepared
   commands into the buffer stage in submission order (see
   ``repro.core.pipeline``);
5. *retired* — it audited a spatial index the queue no longer keeps;
   its number stays unused, so the next one keeps the number the docs
   cite;
6. **run insertion ≡ per-command adds** — ``CommandQueue.add_run``
   (a text line's glyphs entering an offscreen queue as one merged
   stipple) is replayed on a shadow copy of the queue as the
   one-``add``-per-glyph sequence it stands for, and both queues must
   agree on commands, the sequence counter, statistics, opaque cover
   and taint.

Pins are remembered across mutations (a COPY that pinned content may
itself be delivered and removed later), so the stale-overlap check
never false-positives on legally pinned survivors.

The sanitizer lives in ``repro.core`` — next to the structures it
checks and below everything that uses them — so that enabling it never
violates the layer map it ships with.  ``make sanitize`` runs
tier-1 with it armed; a test arms one queue by setting its
``_sanitizer`` to a :class:`QueueSanitizer`.
"""

from __future__ import annotations

import os
from typing import Optional

from ..protocol.commands import OverwriteClass
from ..region import Region

__all__ = ["SanitizerError", "enabled", "enable", "disable",
           "QueueSanitizer", "for_queue", "check_pipe_tail"]


class SanitizerError(AssertionError):
    """A THINC invariant did not hold after a queue/pipeline mutation."""


_env = os.environ.get("THINC_SANITIZE", "")
_enabled = _env not in ("", "0", "false", "no")


def enabled() -> bool:
    """Is the sanitizer currently armed for newly created queues?"""
    return _enabled


def enable() -> None:
    global _enabled
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


def for_queue(queue) -> Optional["QueueSanitizer"]:
    """The hook CommandQueue.__init__ calls: a sanitizer or None."""
    return QueueSanitizer() if _enabled else None


class QueueSanitizer:
    """Per-queue invariant checker; attached by ``for_queue``."""

    def __init__(self) -> None:
        # Every region ever pinned by a buffered COPY's source.  Only
        # grows (cleared with the queue): content legally left stale
        # under a pin stays legal after the pinning COPY is delivered.
        self._pinned_ever = Region()

    # -- mutation hooks ------------------------------------------------------

    def before_mutation(self, queue, newcomer=None) -> None:
        """Record the pin set the mutation will be judged against."""
        for cmd in queue._commands:
            src = getattr(cmd, "src_rect", None)
            if src is not None:
                self._pinned_ever.add(src)
        if newcomer is not None:
            src = getattr(newcomer, "src_rect", None)
            if src is not None:
                self._pinned_ever.add(src)

    def after_mutation(self, queue, op: str) -> None:
        self.check(queue, op)

    def after_add(self, queue, submitted, opaque: Region) -> None:
        """Incremental eviction check against the newcomer's opaque area.

        Burial is judged per newcomer: a complete/transparent command is
        only owed eviction when a *single* opaque add covers it (several
        partial covers legally leave it queued — replay still draws the
        newer content over it), so this check must run at add time with
        the submitted command's own opaque region, before merging
        widened it.
        """
        if opaque.is_empty:
            # Transparent: blending over content the queue does not
            # describe must have left a taint record, judged against the
            # submitted dest (a later merge may widen it legally).
            blended = Region.from_rect(submitted.dest).subtract(
                queue._opaque_cover)
            untracked = blended.subtract(queue._tainted)
            if not untracked.is_empty:
                raise SanitizerError(
                    f"after add of transparent {submitted!r}: blends over "
                    f"undescribed content at {list(untracked)} without a "
                    f"taint record — replay there is not faithful")
        else:
            effective = opaque.subtract(self._pinned_ever)
            if not effective.is_empty:
                for cmd in queue._commands[:-1]:
                    if cmd.seq >= submitted.seq:
                        continue
                    if cmd.overwrite_class is OverwriteClass.PARTIAL:
                        stale = effective.intersect_rect(cmd.dest)
                        if not stale.is_empty:
                            raise SanitizerError(
                                f"after add of {submitted!r}: partial-class "
                                f"{cmd!r} kept stale overlap at "
                                f"{list(stale)} — eviction failed to clip "
                                f"it")
                    elif effective.contains_rect(cmd.dest):
                        raise SanitizerError(
                            f"after add of {submitted!r}: "
                            f"{cmd.overwrite_class.value}-class {cmd!r} is "
                            f"fully buried by the new opaque content — "
                            f"eviction failed to drop it")
        self.check(queue, "add")

    def before_run(self, queue, merged):
        """Before ``add_run``: record pins, return the shadow to replay on.

        The shadow shares the queued command objects (no queue
        operation mutates one in place) and runs unsanitized: it is the
        oracle for what per-command adds do, not a queue under test.
        """
        self.before_mutation(queue, merged)
        shadow = type(queue)()
        shadow._sanitizer = None
        shadow._commands = list(queue._commands)
        shadow._next_seq = queue._next_seq
        shadow._opaque_cover = queue._opaque_cover.copy()
        shadow._tainted = queue._tainted.copy()
        shadow.stats = dict(queue.stats)
        return shadow

    def after_run(self, queue, shadow, merged, parts) -> None:
        """After ``add_run``: the add-time checks, then invariant 6."""
        untracked = Region(parts).subtract(queue._opaque_cover).subtract(
            queue._tainted)
        if not untracked.is_empty:
            raise SanitizerError(
                f"after run add of {merged!r}: blends over undescribed "
                f"content at {list(untracked)} without a taint record")
        self.check(queue, "add_run")
        for part in merged.clipped(parts):
            shadow.add(part)

        def state(q):
            return (len(q._commands), q._next_seq, q.stats, q._opaque_cover,
                    q._tainted)

        def entry(cmd):
            return (cmd.seq, cmd.realtime, cmd.sched_floor, cmd.encode())

        differ = [(ours, theirs) for ours, theirs
                  in zip(queue._commands, shadow._commands)
                  if ours is not theirs and entry(ours) != entry(theirs)]
        if differ or state(queue) != state(shadow):
            raise SanitizerError(
                f"after run add of {merged!r}: queue is {state(queue)} but "
                f"per-command adds give {state(shadow)}; commands that "
                f"differ: {differ}")

    def reset(self) -> None:
        """The queue was cleared; historical pins die with its contents."""
        self._pinned_ever = Region()

    # -- the checks ----------------------------------------------------------

    def check(self, queue, op: str = "mutation") -> None:
        commands = queue._commands
        cover = queue._opaque_cover

        # 1. Arrival order.
        last_seq = -1
        for cmd in commands:
            if cmd.seq < last_seq:
                raise SanitizerError(
                    f"after {op}: queue order violates arrival order "
                    f"(seq {cmd.seq} follows {last_seq}): {cmd!r}")
            last_seq = cmd.seq

        # 2. Opaque-cover consistency.  (The taint record for transparent
        # commands is checked per add in :meth:`after_add`: merging glyph
        # runs legally widens a transparent dest across zero-bit gap
        # columns that draw nothing and need no taint.)
        for cmd in commands:
            opaque = cmd.opaque_region
            if not opaque.is_empty:
                uncovered = opaque.subtract(cover)
                if not uncovered.is_empty:
                    raise SanitizerError(
                        f"after {op}: {cmd!r} draws opaque content at "
                        f"{list(uncovered)} outside the recorded opaque "
                        f"cover — replay bookkeeping is broken")

        # 3. No stale overlap surviving eviction.
        pinned = self._pinned_ever.copy()
        for cmd in commands:
            src = getattr(cmd, "src_rect", None)
            if src is not None:
                pinned.add(src)
        # One backward sweep accumulates the opaque content drawn after
        # each command.  Only partial-class commands owe a global
        # guarantee here — complete/transparent burial is judged per
        # add in :meth:`after_add`, because cumulative covers legally
        # leave them queued.
        later_opaque = Region()
        for cmd in reversed(commands):
            if (cmd.overwrite_class is OverwriteClass.PARTIAL
                    and later_opaque.overlaps_rect(cmd.dest)):
                stale = later_opaque.intersect_rect(cmd.dest)
                unpinned = stale.subtract(pinned)
                if not unpinned.is_empty:
                    raise SanitizerError(
                        f"after {op}: partial-class {cmd!r} survived "
                        f"with stale, unpinned overlap at "
                        f"{list(unpinned)} — eviction failed to clip it")
            opaque = cmd.opaque_region
            if not opaque.is_empty:
                later_opaque = later_opaque.union(opaque)

    def check_replace(self, queue, command, replacement, op: str) -> None:
        """A replace must swap in a true remainder of the original."""
        if replacement.seq != command.seq:
            raise SanitizerError(
                f"during {op}: replacement {replacement!r} changes the "
                f"arrival sequence number ({command.seq} -> "
                f"{replacement.seq})")
        if not command.dest.contains(replacement.dest):
            raise SanitizerError(
                f"during {op}: replacement {replacement!r} is not a "
                f"remainder of {command!r}")


def check_pipe_tail(session, ready: float) -> None:
    """Assert per-session submission-order delivery to the buffer stage.

    Called by ``SessionUnit.enqueue_prepared`` with the plane's ready
    time; keeps its own shadow tail so a ready time earlier than the
    session's previous one — which would let the in-flight FIFO hand a
    completion the wrong command — is caught the moment it is enqueued.
    """
    if not _enabled:
        return
    shadow = getattr(session, "_sanitizer_tail", 0.0)
    if ready < shadow:
        raise SanitizerError(
            f"pipeline pipe-tail went backwards for {session!r}: "
            f"prepared command ready at {ready:.9f} would enter the "
            f"buffer stage before earlier work at {shadow:.9f}")
    session._sanitizer_tail = ready
