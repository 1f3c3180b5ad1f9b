"""The staged command-preparation pipeline.

Display updates flow through six named stages on their way from the
window server to a client::

    Translate -> Scale -> Prepare/Compress -> Buffer/Schedule
              -> Encrypt/Frame -> Flush

The first three stages are *shared* across sessions; the last three are
per-session.  The architectural point (mirroring how VDI systems share
encode work across viewers) is that scaling and RAW/composite payload
compression — the only expensive CPU in the server — happen **once per
distinct viewport**, not once per client:

* :class:`PreparePlane` owns the Scale and Prepare/Compress stages.  A
  prepared-command cache keyed by ``(command identity, viewport scale
  key)`` holds the scaled, compressed result of each translated
  command; N attached clients with the same viewport cause one cache
  miss (the work) and N-1 hits (free).  The serial CPU model charges
  the preparation cost once, on the miss.
* Each session receives a cheap per-session *clone* of the prepared
  command (`Command.translated(0, 0)` shares the pixel arrays and the
  cached compressed payload), because the per-session command queue
  mutates what it stores (sequence numbers, clipping, merging) and the
  cached original must stay pristine.  Shared payloads also make the
  wire frames of cache hits byte-identical across sessions.

Every stage carries a :class:`StageStats` block (commands in/out, bytes
out, CPU seconds, cache hits/misses, queue depth) so servers, sessions
and benchmarks can report exactly where work happens; see
``THINCServer.pipeline_stats``.

Ordering guarantee: prepared commands become *ready* at the CPU model's
completion time, and a cache hit can be ready before work submitted
earlier to the same session has finished preparing.  Sessions therefore
enqueue through a monotonic per-session pipe tail (`enqueue_prepared`)
so the buffer stage always sees commands in submission order — the
invariant the command queue's eviction and dependency rules assume.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Tuple

from ..codec import Encoding, LinkPosture, classify
from ..protocol import compression, wire
from ..protocol.commands import (Command, CompositeCommand, RawCommand,
                                 SFillCommand)

__all__ = ["STAGE_NAMES", "StageStats", "PreparedCommand", "PreparePlane",
           "TranslateStage", "FrameStage"]

STAGE_NAMES = ("translate", "scale", "prepare", "buffer", "frame", "flush")


class StageStats:
    """Uniform instrumentation counters carried by every stage."""

    __slots__ = ("commands_in", "commands_out", "bytes_out", "cpu_seconds",
                 "cache_hits", "cache_misses", "queue_depth")

    def __init__(self) -> None:
        self.commands_in = 0
        self.commands_out = 0
        self.bytes_out = 0
        self.cpu_seconds = 0.0
        self.cache_hits = 0
        self.cache_misses = 0
        self.queue_depth = 0

    def as_dict(self) -> Dict[str, float]:
        return {name: getattr(self, name) for name in self.__slots__}

    def accumulate(self, other: "StageStats") -> "StageStats":
        """Sum *other* into self (used to aggregate session stages)."""
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in self.as_dict().items() if v)
        return f"StageStats({body})"


class TranslateStage:
    """Stage 1 — where translated driver commands enter the pipeline.

    Translation itself happens in :class:`repro.core.translation.
    THINCDriver`; this stage marks the boundary at which a translated
    command is admitted into the delivery pipeline, and counts it.
    """

    name = "translate"

    def __init__(self) -> None:
        self.stats = StageStats()

    def admit(self, command: Command) -> Command:
        self.stats.commands_in += 1
        self.stats.commands_out += 1
        return command


class PreparedCommand:
    """A scaled, compressed command plus the time its CPU work completes."""

    __slots__ = ("command", "ready_at")

    def __init__(self, command: Command, ready_at: float):
        self.command = command
        self.ready_at = ready_at


class PreparePlane:
    """Stages 2–3 — shared Scale and Prepare/Compress planes.

    The cache key is ``(command identity, encoding, viewport scale
    key)``: command identity is a monotonically increasing id stamped
    on each translated command the first time it enters the plane, the
    encoding is the RAW payload encoding the adaptive policy chose (-1
    for non-RAW commands), and the scale key is :attr:`repro.core.
    resize.DisplayScaler.key` (view rect + client size — everything
    that determines the scaled output).

    The plane also closes the server's dispatch path (see
    ``THINCServer.submit``): :meth:`variants` is its *posture classes*
    stage, after which every receiver takes its clone of the class's
    prepared entry straight into its buffer stage.

    The server hands it an adaptive encoder ``policy`` (None: fixed
    encodings) with its one posture hook ``posture_of`` — ``session ->
    LinkPosture``, the server's LinkHealth probe — and ``read_back``,
    ``rect -> pixels`` over the live screen framebuffer, so the scale
    stage can materialise COPY commands whose source lies outside a
    session's view (tile walls, zoomed viewports).  When a policy is
    set, every *fresh* RAW command is classified and re-encoded (or
    demoted to SFILL) once per *posture equivalence class* of the
    submitted sessions before it is stamped with a prep id, so the
    chosen encoding is part of the command's cached identity and one
    congested client can never force lossy payloads on its LAN-class
    peers.  ``shared_cache`` is the one collaborator wired after
    construction.
    """

    def __init__(self, loop, cost_model, policy, posture_of, read_back,
                 cache_entries: int = 128):
        self.loop = loop
        self.cost_model = cost_model
        self.policy = policy
        self.posture_of = posture_of
        self.read_back = read_back
        self.cache_entries = cache_entries
        # (prep_id, encoding, scale_key) -> List[PreparedCommand],
        # LRU-ordered.  The encoding joins the key so an entry prepared
        # under one encoding can never satisfy a lookup for another.
        self._cache: "OrderedDict[Tuple, List[PreparedCommand]]" = \
            OrderedDict()
        self._prep_ids = itertools.count()
        # One serial CPU pipeline for the whole server: preparation cost
        # is charged here exactly once per distinct prepared entry.
        self._cpu_free_at = 0.0
        # Optional second-level cache shared *across* prepare planes
        # (duck-typed: get(command, scale_key) / put(command, scale_key,
        # entry)).  The cluster layer injects one so shards stop paying
        # for work a peer already compressed; the core never depends on
        # it.  Entries are keyed by command *content*, not prep id —
        # prep ids are plane-local.
        self.shared_cache = None
        self.scale_stats = StageStats()
        self.stats = StageStats()  # the Prepare/Compress stage

    # -- adaptive encoding ---------------------------------------------------

    def _demote_solid(self, command: RawCommand, color) -> SFillCommand:
        fill = SFillCommand(command.dest, color)
        fill.seq = command.seq
        fill.realtime = command.realtime
        fill.sched_floor = command.sched_floor
        return fill

    def variants(self, command: Command,
                 sessions: Iterable) -> Iterator[Tuple[List, Command]]:
        """Partition *sessions* into encoding equivalence classes.

        Yields ``(members, variant)`` pairs where *variant* is the
        command encoded for that class and *members* the sessions that
        should receive it.  Only a fresh RAW command under an adaptive
        policy can split; everything else is one class receiving the
        command as submitted.  All variants of one submitted command
        share a single prep id, so two posture classes that resolve to
        the same encoding also share one cache entry per scale key —
        the ``(scale, pixel-format, encoding)`` equivalence class of
        the fan-out design.
        """
        sessions = list(sessions)
        fresh = getattr(command, "_prep_id", None) is None
        if fresh:
            command._prep_id = next(self._prep_ids)
        if (self.policy is None or not fresh
                or not isinstance(command, RawCommand)):
            yield sessions, command
            return
        classes: "OrderedDict[int, List]" = OrderedDict()
        for session in sessions:
            classes.setdefault(int(self.posture_of(session)),
                               []).append(session)
        # Content statistics are posture-independent: classify once per
        # command, not once per class (a single class classifies
        # inside ``select``).
        stats = classify(command.pixels) if len(classes) > 1 else None
        emitted: "OrderedDict[int, Tuple[List, Command]]" = OrderedDict()
        for posture_key, members in classes.items():
            choice = self.policy.select(command.pixels,
                                        LinkPosture(posture_key),
                                        stats=stats)
            if choice.solid_color is not None:
                variant = self._demote_solid(command, choice.solid_color)
            else:
                # ``with_encoding`` returns the command itself for the
                # encoding the translator produced, so a
                # pre-materialised batch payload survives.
                variant = command.with_encoding(choice.encoding)
            variant._prep_id = command._prep_id
            marker = self._encoding_of(variant)
            if marker in emitted:
                emitted[marker][0].extend(members)
            else:
                emitted[marker] = (members, variant)
        yield from emitted.values()

    @staticmethod
    def _encoding_of(command: Command) -> int:
        enc = getattr(command, "encoding", None)
        return -1 if enc is None else int(enc)

    # -- the shared path -----------------------------------------------------

    def submit(self, command: Command, sessions: Iterable) -> None:
        """Prepare *command* once per posture class and distinct
        viewport among *sessions* and hand each session its prepared
        clones."""
        self._deliver(self.variants(command, sessions))

    def _deliver(self, classes) -> None:
        for members, variant in classes:
            for session in members:
                for prepared in self.prepare_entry(variant, session):
                    # Per-session clone: shares pixels and compressed
                    # payload, but queue-mutable state stays private.
                    session.enqueue_prepared(
                        prepared.command.translated(0, 0),
                        prepared.ready_at)

    def prepare_entry(self, command: Command,
                      session) -> List[PreparedCommand]:
        """Resolve *command* to its prepared entry for *session*'s
        viewport: cache hit, shared-cache adoption, or a fresh prepare
        (the CPU-charging miss)."""
        pid = command._prep_id
        key = (pid, self._encoding_of(command)) + session.scaler.key
        entry = self._cache.get(key)
        if entry is None:
            shared = self.shared_cache
            entry = shared.get(command, session.scaler.key) \
                if shared is not None else None
            if entry is not None:
                # A peer plane already paid the CPU for this exact
                # (content, viewport) pair; adopt its entry locally.
                self._store(key, entry)
                self.stats.cache_hits += 1
            else:
                entry, cost = self._prepare(command, session.scaler)
                self._store(key, entry)
                self.stats.cache_misses += 1
                # Attribute the miss to the session that triggered
                # it; per-session cpu_time sums to the server total.
                session.stats["cpu_time"] += cost
                if shared is not None:
                    shared.put(command, session.scaler.key, entry)
        else:
            self._cache.move_to_end(key)
            self.stats.cache_hits += 1
        return entry

    def submit_batch(self, commands: Iterable[Command],
                     sessions: Iterable) -> None:
        """Admit one pipeline drain of commands at once.

        Same semantics as calling :meth:`submit` per command — the
        fan-out, cache keys and ordering are identical — but fresh RAW
        blocks of the same shape headed for PNG encoding are filtered
        in one fused numpy pass (:func:`repro.protocol.compression.
        png_compress_batch`) and their payloads pre-materialised, so
        the per-command prepare step finds the bytes already cached.
        Byte-for-byte identical to the per-command path.
        """
        sessions = list(sessions)
        classed = [list(self.variants(c, sessions)) for c in commands]
        groups: Dict[Tuple, List[RawCommand]] = {}
        for classes in classed:
            for _, cmd in classes:
                if (isinstance(cmd, RawCommand)
                        and cmd.encoding is Encoding.PNG
                        and cmd._payload is None):
                    groups.setdefault(cmd.pixels.shape, []).append(cmd)
        for members in groups.values():
            if len(members) < 2:
                continue
            payloads = compression.png_compress_batch(
                [m.pixels for m in members])
            for member, payload in zip(members, payloads):
                member._payload = payload
        for classes in classed:
            self._deliver(classes)

    def _prepare(self, command: Command,
                 scaler) -> Tuple[List[PreparedCommand], float]:
        self.scale_stats.commands_in += 1
        scaled = scaler.scale_command(command, read_back=self.read_back)
        self.scale_stats.commands_out += len(scaled)
        out: List[PreparedCommand] = []
        total_cost = 0.0
        for cmd in scaled:
            cpu = self.cost_model.cost(cmd)
            start = max(self.loop.now, self._cpu_free_at)
            self._cpu_free_at = start + cpu
            total_cost += cpu
            self.stats.commands_in += 1
            self.stats.commands_out += 1
            self.stats.cpu_seconds += cpu
            if isinstance(cmd, (RawCommand, CompositeCommand)):
                # Materialise the compressed payload now: this is the
                # Prepare/Compress stage's real work, done once and then
                # shared by every clone (hence byte-identical frames).
                self.stats.bytes_out += len(cmd._encoded_payload())
            else:
                self.stats.bytes_out += cmd.wire_size()
            out.append(PreparedCommand(cmd, self._cpu_free_at))
        return out, total_cost

    def _store(self, key: Tuple, entry: List[PreparedCommand]) -> None:
        self._cache[key] = entry
        while len(self._cache) > self.cache_entries:
            self._cache.popitem(last=False)

    # -- diagnostics ---------------------------------------------------------

    def cache_size(self) -> int:
        return len(self._cache)


class FrameStage:
    """Stage 5 — per-session framing and (optional) RC4 encryption.

    Framing and encryption are deliberately split: :meth:`frame`
    produces *plaintext* framed bytes and :meth:`encrypt` is applied by
    the session only at write time.  The flush path may frame a
    command head and then discover it does not fit — with encryption
    inside ``frame`` that consumed RC4 keystream for bytes that were
    never sent, silently desynchronising the client's cipher.  Keeping
    frames plain until the moment they hit the socket also lets the
    resilience plane journal sent frames and re-encrypt them under a
    fresh key after a reconnect.  RC4 is size-preserving, so all flush
    size arithmetic is unaffected by the split.
    """

    name = "frame"

    def __init__(self, cipher=None):
        self.cipher = cipher
        self.stats = StageStats()

    def frame(self, msg) -> bytes:
        """Frame *msg* as plaintext wire bytes (no keystream consumed)."""
        data = wire.encode_message(msg)
        self.stats.commands_in += 1
        self.stats.commands_out += 1
        self.stats.bytes_out += len(data)
        return data

    def encrypt(self, data: bytes) -> bytes:
        """Apply the session cipher to bytes actually being written."""
        if self.cipher is None:
            return data
        return self.cipher.process(data)

    def rekey(self, cipher) -> None:
        """Replace the cipher (a reconnect restarts both keystreams)."""
        self.cipher = cipher
