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

* :class:`PreparePlane` owns the Scale and Prepare/Compress stages.
  One dispatch hands it a command and the sessions that receive it;
  the plane prepares each encoding variant once per distinct viewport
  scale key among them, so N attached clients with the same viewport
  cost one miss (the work) and N-1 hits (free).  The serial CPU model
  charges the preparation cost once, on the miss.
* Each session receives a cheap per-session *clone* of the prepared
  command (`Command.translated(0, 0)` shares the pixel arrays and the
  compressed payload), because the per-session command queue mutates
  what it stores (sequence numbers, clipping, merging) and the shared
  original must stay pristine.  Shared payloads also make the wire
  frames of same-viewport sessions byte-identical.

The plane counts its CPU seconds and cache hits/misses in its
``stats`` dict; ``THINCServer.pipeline_stats`` reports them beside the
translate count and each session's buffer and flush counters.

Ordering guarantee: prepared commands become *ready* at the CPU model's
completion time.  One plane's serial CPU makes those times monotonic in
submission order, so a session keeps its in-flight commands in a FIFO
(`enqueue_prepared`) and each completion moves the FIFO's head into the
buffer: the buffer stage always sees commands in submission order — the
invariant the command queue's eviction and dependency rules assume.  A
freeze carries the FIFO in the session's blob, after the buffered
commands, so migration keeps that order too.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Tuple

from ..codec import LinkPosture, classify
from ..protocol import wire
from ..protocol.rc4 import RC4
from ..protocol.commands import (Command, CompositeCommand, RawCommand,
                                 SFillCommand)

__all__ = ["PreparePlane", "FrameStage"]


class PreparePlane:
    """Stages 2–3 — shared Scale and Prepare/Compress planes.

    One dispatch (:meth:`submit`) prepares each encoding variant of
    the command once per distinct viewport scale key among its
    receivers — :attr:`repro.core.resize.DisplayScaler.key`, view
    rect + client size, everything that determines the scaled output —
    and hands every receiver a clone of that entry.  Entries live only
    for the dispatch: the server's dispatch path hands each command
    object to the plane once, so a later lookup could never hit.

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
    set, every RAW command is classified and re-encoded (or demoted to
    SFILL) once per *posture equivalence class* of the submitted
    sessions, so one congested client can never force lossy payloads
    on its LAN-class peers.

    The Prepare/Compress stage does not DEFLATE on the loop's thread.
    It begins each PNG payload (:meth:`RawCommand.begin_payload`), which
    starts a one-band block on a DEFLATE pool worker
    (:class:`repro.protocol.compression.PngJob`), and the prepared
    command and its clones share that job.  The simulated CPU model
    already runs compression beside the server: a receiver buffers its
    clone only at the entry's ``ready_at``.  That is where the clone
    reads its wire size, and so where the loop collects the payload
    (``SessionUnit._add_to_buffer``).  In between, the loop runs other
    events.  With no spare CPU the payload is DEFLATEd at that read.
    """

    def __init__(self, loop, cost_model, policy, posture_of, read_back):
        self.loop = loop
        self.cost_model = cost_model
        self.policy = policy
        self.posture_of = posture_of
        self.read_back = read_back
        # One serial CPU pipeline for the whole server: preparation cost
        # is charged here exactly once per distinct prepared entry.
        self._cpu_free_at = 0.0
        # The Prepare/Compress stage's counters.
        self.stats = {"cpu_seconds": 0.0, "cache_hits": 0,
                      "cache_misses": 0}

    # -- adaptive encoding ---------------------------------------------------

    def variants(self, command: Command,
                 sessions: Iterable) -> Iterator[Tuple[List, Command]]:
        """Partition *sessions* into encoding equivalence classes.

        Yields ``(members, variant)`` pairs where *variant* is the
        command encoded for that class and *members* the sessions that
        should receive it.  Only a RAW command under an adaptive policy
        can split; everything else is one class receiving the command
        as submitted.  Two posture classes that resolve to the same
        encoding are one class — the ``(scale, pixel-format,
        encoding)`` equivalence class of the fan-out design.
        """
        sessions = list(sessions)
        if self.policy is None or not isinstance(command, RawCommand):
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
                variant = SFillCommand(command.dest, choice.solid_color)
            else:
                variant = command.with_encoding(choice.encoding)
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
        for members, variant in self.variants(command, sessions):
            # This dispatch's entries of *variant*, by scale key.
            entries: Dict[Tuple, List[Tuple[Command, float]]] = {}
            for session in members:
                for prepared, ready_at in self.prepare_entry(
                        variant, session, entries):
                    # Per-session clone: shares pixels and compressed
                    # payload, but queue-mutable state stays private.
                    session.enqueue_prepared(prepared.translated(0, 0),
                                             ready_at)

    def prepare_entry(self, command: Command, session,
                      entries: Dict[Tuple, List[Tuple[Command, float]]]
                      ) -> List[Tuple[Command, float]]:
        """Resolve *command* to its prepared entry for *session*'s
        viewport: a hit on an entry this dispatch already prepared
        (*entries*, by scale key), or a fresh prepare (the
        CPU-charging miss)."""
        key = session.scaler.key
        entry = entries.get(key)
        if entry is None:
            entry, cost = self._prepare(command, session.scaler)
            entries[key] = entry
            self.stats["cache_misses"] += 1
            # Attribute the miss to the session that triggered it;
            # per-session cpu_time sums to the server total.
            session.stats["cpu_time"] += cost
        else:
            self.stats["cache_hits"] += 1
        return entry

    def submit_batch(self, commands: Iterable[Command],
                     sessions: Iterable) -> None:
        """:meth:`submit` per command.  Kept only because the thincbench
        tracer wraps it by name; ROADMAP item 25 deletes it."""
        sessions = list(sessions)
        for command in commands:
            self.submit(command, sessions)

    def _prepare(self, command: Command,
                 scaler) -> Tuple[List[Tuple[Command, float]], float]:
        """Scale *command* for *scaler*'s viewport and charge each
        scaled command's CPU: ``([(command, ready_at), ...], cost)``."""
        scaled = scaler.scale_command(command, read_back=self.read_back)
        out: List[Tuple[Command, float]] = []
        total_cost = 0.0
        for cmd in scaled:
            cpu = self.cost_model.cost(cmd)
            start = max(self.loop.now, self._cpu_free_at)
            self._cpu_free_at = start + cpu
            total_cost += cpu
            self.stats["cpu_seconds"] += cpu
            if isinstance(cmd, (RawCommand, CompositeCommand)):
                # The stage's real work, done once and shared by every
                # clone (hence byte-identical frames): a PNG payload
                # starts DEFLATing beside the loop now, and the command
                # collects it when it enters a session's buffer.
                cmd.begin_payload()
            out.append((cmd, self._cpu_free_at))
        return out, total_cost


class FrameStage:
    """Stage 5 — one session's write path: framing, sequencing and
    journaling, (optional) RC4 encryption, and the socket.

    Framing and encryption are deliberately split: :meth:`frame`
    produces *plaintext* framed bytes and :meth:`encrypt` is applied
    only to bytes that reach the socket.  The flush path may frame a
    command head and then discover it does not fit — with encryption
    inside ``frame`` that consumed RC4 keystream for bytes that were
    never sent, silently desynchronising the client's cipher.  Keeping
    frames plain until the moment they hit the socket also lets the
    journal keep sent frames re-encryptable under a fresh key after a
    reconnect.  RC4 is size-preserving, so all flush size arithmetic is
    unaffected by the split.

    A guarded session (non-zero ``token``) wraps every frame it writes
    in a CHECKED wrapper whose sequence number is assigned in *send*
    order, so the client's cumulative ack and the session's replay
    journal agree byte-for-byte about what the client may have seen,
    and journals each wrapped plaintext frame.  The stage is the
    ``Writer`` the flush stage writes into: ``writable_bytes`` and
    ``capacity`` subtract the wrapper overhead so its size arithmetic
    keeps working unchanged.  Every frame written counts in the
    session's ``messages_sent`` and ``bytes_sent``.
    """

    def __init__(self, session):
        self.session = session
        self.key = session.server.encrypt_key
        self.cipher = RC4(self.key) if self.key else None
        self.overhead = wire.CHECKED_OVERHEAD if session.token else 0
        self.last_seq = 0

    def frame(self, msg) -> bytes:
        """Frame *msg* as plaintext wire bytes (no keystream consumed)."""
        return wire.encode_message(msg)

    def encrypt(self, data: bytes) -> bytes:
        """Apply the session cipher to bytes actually being written."""
        if self.cipher is None:
            return data
        return self.cipher.process(data)

    def rekey(self) -> None:
        """Restart the keystream (a reconnect restarts both sides')."""
        if self.key:
            self.cipher = RC4(self.key)

    def writable_bytes(self) -> int:
        room = self.session.connection.down.writable_bytes()
        return max(0, room - self.overhead)

    def capacity(self) -> int:
        return self.session.connection.down.send_buffer_limit - self.overhead

    def write(self, data: bytes) -> None:
        session = self.session
        if session.token:
            self.last_seq += 1
            data = wire.wrap_checked(data, self.last_seq)
            session.journal.append((self.last_seq, data))
            session.journal_bytes += len(data)
            if session.journal_bytes > session.guard.log_limit:
                session.drop_journal(True)
                session.server.resilience.stats["log_overflows"] += 1
        self.write_prewrapped(data)

    def write_prewrapped(self, data: bytes) -> None:
        """Write an already-wrapped frame (resync replay): encrypt
        only — it carries its original sequence number and is already
        in the journal."""
        stats = self.session.stats
        stats["messages_sent"] += 1
        stats["bytes_sent"] += len(data)
        self.session.connection.down.write(self.encrypt(data))

    def prewrapped_writable(self) -> int:
        return self.session.connection.down.writable_bytes()
