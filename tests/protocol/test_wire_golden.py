"""Golden wire vectors: the byte-identity contract of the control codec.

``wire_golden.json`` pins, for the wire format as committed:

* ``instances`` — ``encode_message`` hex for two instances of every
  registered control class, one at the lowest and one at the highest
  legal value of every field (variable-length payloads are kept short
  so the data file stays small);
* ``seed_corpus`` — hex of every ``fuzz.corpus.seed_corpus()`` entry;
* ``mutator_sha256`` — one SHA-256 over the outcome (parsed message
  reprs, or the exception class name, plus ``pending_bytes``) of each
  of 5 000 ``Mutator(seed=54, ...)`` cases fed to an unrestricted
  ``StreamParser``;
* ``commands`` — ``encode_message`` hex for at least two instances of
  every display command (RAW once per ``Encoding``, once as a
  two-band PNG payload, and as an opaque PNG block — RGB rows — of one
  and of two bands, BITMAP with and without ``bg``, a PFILL with a
  non-zero origin, VFRAME in both pixel formats, a self-overlapping
  and a disjoint COPY);
* ``frozen_session`` — hex of one ``FrozenSession`` v4 blob with every
  flag set, all four lists non-empty and non-zero counters.

A codec refactor must pass this file unchanged.  A deliberate wire
change regenerates it (``PYTHONPATH=src python
tests/protocol/test_wire_golden.py``) and says so in its PR.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from repro.codec import Encoding
from repro.core.session_unit import FrozenSession
from repro.fuzz.corpus import seed_corpus
from repro.fuzz.mutator import Mutator
from repro.protocol import commands, wire
from repro.protocol.limits import LIMITS
from repro.region import Rect

GOLDEN = Path(__file__).with_name("wire_golden.json")

U16, U32, U64 = 0xFFFF, 0xFFFFFFFF, 2 ** 64 - 1
F_MIN, F_MAX = -sys.float_info.max, sys.float_info.max
DIM = LIMITS.max_viewport_dim
NO_RECT, FULL_RECT = Rect(0, 0, 0, 0), Rect(U16, U16, U16, U16)

#: (lowest, highest) legal instance of every control class.
INSTANCES = [
    wire.VideoSetupMessage(0, "", 1, 1, NO_RECT),
    wire.VideoSetupMessage(U16, "~" * LIMITS.max_pixel_format_len,
                           DIM, DIM, FULL_RECT),
    wire.VideoMoveMessage(0, NO_RECT),
    wire.VideoMoveMessage(U16, FULL_RECT),
    wire.VideoTeardownMessage(0),
    wire.VideoTeardownMessage(U16),
    wire.AudioChunkMessage(F_MIN, b""),
    wire.AudioChunkMessage(F_MAX, bytes(range(256))),
    wire.InputMessage("mouse-move", 0, 0, F_MIN),
    wire.InputMessage("key", U16, U16, F_MAX),
    wire.ResizeMessage(1, 1),
    wire.ResizeMessage(DIM, DIM),
    wire.ScreenInitMessage(1, 1),
    wire.ScreenInitMessage(DIM, DIM),
    wire.CursorImageMessage(0, 0, 1, 1, b"\x00" * 4),
    wire.CursorImageMessage(U16, U16, 8, 8, b"\xff" * 256),
    wire.RefreshRequestMessage(NO_RECT),
    wire.RefreshRequestMessage(FULL_RECT),
    wire.ZoomRequestMessage(NO_RECT),
    wire.ZoomRequestMessage(FULL_RECT),
    wire.CheckedFrame(0, wire.HeartbeatMessage(0, F_MIN)),
    wire.CheckedFrame(U32, wire.HeartbeatMessage(U32, F_MAX)),
    wire.HeartbeatMessage(0, F_MIN),
    wire.HeartbeatMessage(U32, F_MAX),
    wire.ReconnectRequestMessage(0, 0),
    wire.ReconnectRequestMessage(U32, U32),
    wire.ReconnectAcceptMessage(0, wire.RESYNC_FRESH),
    wire.ReconnectAcceptMessage(U32, wire.RESYNC_SNAPSHOT),
    wire.ReconnectDeniedMessage(0.0),
    wire.ReconnectDeniedMessage(LIMITS.max_retry_after),
    wire.AttachDeniedMessage(wire.DENY_SERVER_FULL, 0.0),
    wire.AttachDeniedMessage(wire.DENY_QUARANTINED,
                             LIMITS.max_retry_after),
    wire.SessionTransferMessage(0, b""),
    wire.SessionTransferMessage(U32, bytes(range(256))),
    wire.MigrateBeginMessage(0, 0),
    wire.MigrateBeginMessage(U32, LIMITS.max_shard_id),
    wire.MigrateCompleteMessage(0, 0),
    wire.MigrateCompleteMessage(U32, LIMITS.max_shard_id),
    wire.ShardAdmissionReportMessage(0, 0, 0, False),
    wire.ShardAdmissionReportMessage(LIMITS.max_shard_id, U32, U64, True),
    wire.SubscribeMessage(wire.SUBSCRIBE_MIRROR),
    wire.SubscribeMessage(wire.SUBSCRIBE_TILE, LIMITS.max_wall_tiles, 1,
                          LIMITS.max_wall_tiles - 1),
    wire.TileAssignMessage(1, 1, Rect(0, 0, 1, 1)),
    wire.TileAssignMessage(DIM, DIM, Rect(0, 0, DIM, DIM)),
    wire.VideoQualityMessage(0, 0),
    wire.VideoQualityMessage(U16, LIMITS.max_qos_rung,
                             LIMITS.max_fps_divisor,
                             LIMITS.max_scale_shift, LIMITS.max_qos_qstep),
    wire.QosReportMessage(0, 0, 0.0, 0.0, 0.0),
    wire.QosReportMessage(U16, U32, 1.0, 1.0, LIMITS.max_av_skew),
]


def _ramp(*shape):
    """Deterministic byte content (no RNG stream to keep stable)."""
    return (np.arange(int(np.prod(shape))) * 7 % 251).astype(
        np.uint8).reshape(shape)


def _opaque(*shape):
    """A ramp whose alpha is 255 everywhere: its PNG payload carries RGB
    rows (``c = 3``)."""
    block = _ramp(*shape)
    block[..., 3] = 255
    return block


_BLOCK = Rect(3, 4, 6, 5)
_MASK = _ramp(5, 6) % 3 == 0

#: label -> pinned display-command instance.
COMMANDS = {
    **{f"RAW {encoding.name}":
       commands.RawCommand(_BLOCK, _ramp(5, 6, 4), encoding)
       for encoding in Encoding},
    # 64 B rows: two 1024-row bands, each flushed after its first row
    # and at its end, inside one zlib stream.
    "RAW PNG two bands": commands.RawCommand(Rect(0, 0, 16, 2048),
                                             _ramp(2048, 16, 4)),
    "RAW PNG opaque": commands.RawCommand(_BLOCK, _opaque(5, 6, 4)),
    # 48 B RGB rows: two 1365-row bands.
    "RAW PNG opaque two bands": commands.RawCommand(
        Rect(0, 0, 16, 2730), _opaque(2730, 16, 4)),
    "COPY self-overlapping": commands.CopyCommand(0, 8, Rect(0, 0, 64, 40)),
    "COPY disjoint": commands.CopyCommand(100, 200, Rect(0, 0, 16, 16)),
    "SFILL low": commands.SFillCommand(Rect(0, 0, 1, 1), (0, 0, 0, 0)),
    "SFILL high": commands.SFillCommand(Rect(U16, U16, U16, U16),
                                        (255, 254, 253, 252)),
    "PFILL": commands.PFillCommand(Rect(0, 0, 8, 8), _ramp(1, 1, 4)),
    "PFILL origin": commands.PFillCommand(Rect(5, 9, 20, 12),
                                          _ramp(3, 4, 4), origin=(2, 7)),
    "BITMAP transparent": commands.BitmapCommand(_BLOCK, _MASK,
                                                 (1, 2, 3, 255)),
    "BITMAP opaque": commands.BitmapCommand(_BLOCK, _MASK, (1, 2, 3, 255),
                                            (9, 8, 7, 6)),
    "COMPOSITE": commands.CompositeCommand(_BLOCK, _ramp(5, 6, 4)),
    "COMPOSITE 1x1": commands.CompositeCommand(Rect(0, 0, 1, 1),
                                               _ramp(1, 1, 4)),
    "VFRAME YV12": commands.VideoFrameCommand(
        3, Rect(0, 0, 32, 24), 8, 6, _ramp(8 * 6 * 3 // 2).tobytes(),
        frame_no=9),
    "VFRAME YUY2": commands.VideoFrameCommand(
        U16, Rect(1, 2, 16, 12), 8, 6, _ramp(8 * 6 * 2).tobytes(),
        frame_no=U32, pixel_format="YUY2"),
}

#: Every flag set, every list non-empty, every counter non-zero.
FROZEN = FrozenSession(
    token=0xC0FFEE, viewport=(96, 64), view_rect=Rect(8, 4, 48, 32),
    degraded=True, shed_display=True, log_dropped=True,
    last_seq=41, acked_seq=39,
    journal=((40, b"frame-40"), (41, b"frame-41")),
    commands=(COMMANDS["COPY disjoint"].encode(),
              COMMANDS["SFILL high"].encode()),
    replay=(b"replayed",), control=(b"ctl", b""),
    stats={"messages_sent": 12, "bytes_sent": 1 << 33, "flush_periods": 9,
           "cpu_time": 0.125, "audio_dropped": 4, "display_shed": 1,
           "uplink_dropped": 5, "wire_errors": 2},
    tile_mode=True, qos_rung=LIMITS.max_qos_rung)


def mutator_outcomes():
    """``(case, outcome, pending_bytes)`` for each of the 5 000 mutated
    streams; ``mutator_differential.py`` compares them across commits."""
    corpus = seed_corpus() + [wire.encode_message(m) for m in INSTANCES]
    for case in Mutator(54, corpus).cases(5000):
        parser = wire.StreamParser()
        try:
            outcome = "|".join(repr(m) for m in parser.feed(case))
        except wire.ProtocolError as exc:
            outcome = type(exc).__name__
        yield case, outcome, parser.pending_bytes


def _mutator_digest():
    digest = hashlib.sha256()
    for _, outcome, pending in mutator_outcomes():
        digest.update(f"{outcome},{pending}\n".encode())
    return digest.hexdigest()


def _current():
    return {
        "instances": {repr(m): wire.encode_message(m).hex()
                      for m in INSTANCES},
        "seed_corpus": [entry.hex() for entry in seed_corpus()],
        "mutator_sha256": _mutator_digest(),
        "commands": {label: wire.encode_message(cmd).hex()
                     for label, cmd in COMMANDS.items()},
        "frozen_session": FROZEN.to_bytes().hex(),
    }


def test_instances_cover_every_control_class_twice():
    counts = {}
    for msg in INSTANCES:
        counts[type(msg)] = counts.get(type(msg), 0) + 1
    assert counts == {cls: 2 for cls in wire._CONTROL_TYPES.values()}


def test_instances_encode_to_golden_bytes_and_back():
    golden = json.loads(GOLDEN.read_text())["instances"]
    assert list(golden) == [repr(m) for m in INSTANCES]
    for msg in INSTANCES:
        framed = wire.encode_message(msg)
        assert framed.hex() == golden[repr(msg)], repr(msg)
        assert wire.parse_messages(framed) == [msg]


def test_seed_corpus_bytes_are_golden():
    golden = json.loads(GOLDEN.read_text())["seed_corpus"]
    assert [entry.hex() for entry in seed_corpus()] == golden


def test_mutated_stream_outcomes_are_golden():
    golden = json.loads(GOLDEN.read_text())["mutator_sha256"]
    assert _mutator_digest() == golden


def test_commands_cover_every_display_command_twice():
    counts = {}
    for cmd in COMMANDS.values():
        counts[type(cmd)] = counts.get(type(cmd), 0) + 1
    assert set(counts) == set(commands.COMMAND_TYPES.values())
    assert min(counts.values()) >= 2
    # + two bands, opaque, opaque two bands
    assert counts[commands.RawCommand] == len(Encoding) + 3


def test_commands_encode_to_golden_bytes_and_back():
    golden = json.loads(GOLDEN.read_text())["commands"]
    assert list(golden) == list(COMMANDS)
    for label, cmd in COMMANDS.items():
        framed = wire.encode_message(cmd)
        assert framed.hex() == golden[label], label
        (parsed,) = wire.parse_messages(framed)
        assert type(parsed) is type(cmd), label
        assert wire.encode_message(parsed) == framed, label


def test_frozen_session_blob_is_golden_and_thaws():
    golden = bytes.fromhex(json.loads(GOLDEN.read_text())["frozen_session"])
    assert FROZEN.to_bytes() == golden
    assert FrozenSession.from_bytes(golden) == FROZEN


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_current(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
