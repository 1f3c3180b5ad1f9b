"""Seed and crash corpora for the protocol fuzzer.

The seed corpus is every *valid* uplink message shape the client can
produce — mutation needs structured starting points or it only ever
exercises the "unknown type id" branch.  The crash corpus is a
directory of ``*.bin`` files: every input that ever produced a finding
is saved there and replayed by the test suite forever after, so a
fixed bug stays fixed.
"""

from __future__ import annotations

import os
from typing import List

import numpy as np

from ..codec import Encoding
from ..protocol import wire
from ..protocol.commands import RawCommand
from ..region import Rect

__all__ = ["seed_corpus", "display_seed_corpus", "load_crash_corpus",
           "save_crash"]


def seed_corpus(width: int = 96, height: int = 64) -> List[bytes]:
    """Framed, valid uplink messages to seed mutation from.

    Includes single frames, a multi-frame packet (framing lies need a
    second frame to corrupt into), and a CHECKED-wrapped heartbeat (the
    prelude shape, so CRC and nesting handling get mutated too).
    """
    msgs = [
        wire.InputMessage("mouse-move", 10, 12, 0.25),
        wire.InputMessage("mouse-click", width - 1, height - 1, 0.5),
        wire.InputMessage("key", 0, 0, 1.0),
        wire.ResizeMessage(width, height),
        wire.ResizeMessage(2 * width, 2 * height),
        wire.RefreshRequestMessage(Rect(0, 0, width, height)),
        wire.RefreshRequestMessage(Rect(4, 4, 8, 8)),
        wire.ZoomRequestMessage(Rect(8, 8, width // 2, height // 2)),
        wire.ZoomRequestMessage(Rect(0, 0, 0, 0)),
        wire.HeartbeatMessage(7, 1.5),
        wire.ReconnectRequestMessage(3, 41),
        # Fan-out control: a mirror subscription, a tile claim, and a
        # tile claim on the largest legal grid (mutation around the
        # cols*rows bound and the zeroed-grid rule both start from
        # valid shapes).
        wire.SubscribeMessage(wire.SUBSCRIBE_MIRROR),
        wire.SubscribeMessage(wire.SUBSCRIBE_TILE, 3, 2, 4),
        wire.SubscribeMessage(wire.SUBSCRIBE_TILE, 64, 64, 64 * 64 - 1),
        # TILE_ASSIGN is downlink-only: a client sending one is lying
        # about its role, so this seed exercises the uplink
        # direction-reject path with valid tile framing to corrupt.
        wire.TileAssignMessage(width, height,
                               Rect(0, 0, width // 2, height)),
        # QoS control: a valid client quality report (mutation around
        # the [0,1] quality and skew bounds starts from a valid shape),
        # plus VIDEO_QUALITY — downlink-only, so a client sending one
        # exercises the uplink direction-reject path with valid
        # descriptor framing to corrupt.
        wire.QosReportMessage(1, 24, 0.9, 0.8, 0.05),
        wire.VideoQualityMessage(1, 2, 2, 1, 0),
        # Fabric control frames are shard-to-shard only: a client that
        # sends one is lying about its role, so these seeds exercise
        # the uplink direction-reject path (and give mutation real
        # fabric framing to corrupt).
        wire.MigrateBeginMessage(3, 1),
        wire.MigrateCompleteMessage(3, 1),
        wire.SessionTransferMessage(3, b"\x01" + b"\x00" * 12),
        wire.ShardAdmissionReportMessage(0, 4, 4096, True),
    ]
    corpus = [wire.encode_message(m) for m in msgs]
    corpus.append(b"".join(corpus[:4]))
    corpus.append(wire.wrap_checked(
        wire.encode_message(wire.HeartbeatMessage(1, 0.5)), 9))
    return corpus


def display_seed_corpus() -> List[bytes]:
    """Valid-ish *display* command bytes to mutate against the decoder.

    One 16×12 RAW command per payload encoding tag (the adaptive ladder's
    whole enum), a two-band PNG RAW and the head its flush-time split
    assembles (full-flush points inside the zlib stream, and the empty
    final block that closes a head), the same pair for an opaque block
    (RGB rows, ``c = 3``), plus the malformed shapes the bounded decoder
    must reject rather than crash on: an out-of-range encoding tag, a
    lossy payload truncated mid-stream, a lossy payload whose declared
    length exceeds the bytes present, and PNG headers declaring 2 and 5
    channels.  A decoder consuming these must either return a command
    or raise ``ValueError`` — nothing else.
    """
    rng = np.random.default_rng(9)
    pixels = rng.integers(0, 256, (12, 16, 4), dtype=np.uint8)
    rect = Rect(2, 3, 16, 12)
    corpus = [RawCommand(rect, pixels, enc).encode()
              for enc in (Encoding.NONE, Encoding.PNG,
                          Encoding.RLE, Encoding.LOSSY)]
    # 64-byte rows band every 1024: smooth content keeps it ~1 KiB.
    tall = np.broadcast_to(np.arange(2048, dtype=np.uint8)[:, None, None],
                           (2048, 16, 4))
    # Opaque, so 48-byte RGB rows: they band every 1365.
    opaque = np.full((2730, 16, 4), 255, dtype=np.uint8)
    opaque[..., :3] = (np.arange(2730) % 256)[:, None, None]
    for block in (tall, opaque):
        banded = RawCommand(Rect(0, 0, 16, len(block)), block)
        room = banded.wire_size() - 1
        corpus += [banded.encode(), banded.split(room, room)[0].encode()]
    # Encoding tag past WireLimits.max_raw_encoding (header is type u8
    # + rect 4xu16; the tag is the next byte).
    bad_tag = bytearray(corpus[0])
    bad_tag[9] = 0xEE
    corpus.append(bytes(bad_tag))
    # Lossy payload chopped mid-stream with the length field intact.
    lossy = corpus[3]
    corpus.append(lossy[: len(lossy) - max(1, len(lossy) // 3)])
    # Lossy meta header alone, declaring planes that never arrive.
    corpus.append(lossy[:19])
    # PNG payloads whose h[u16] w[u16] c[u8] header declares a channel
    # count no block has: rejected before a byte is inflated.
    # The payload follows the type byte and the header rows.
    channels_at = 1 + RawCommand.schema.struct.size + 4
    for channels in (2, 5):
        bad_channels = bytearray(corpus[1])
        bad_channels[channels_at] = channels
        corpus.append(bytes(bad_channels))
    return corpus


def load_crash_corpus(path: str) -> List[bytes]:
    """All ``*.bin`` inputs under *path*, sorted by name for
    deterministic replay order.  Missing directory → empty corpus."""
    if not os.path.isdir(path):
        return []
    out = []
    for name in sorted(os.listdir(path)):
        if name.endswith(".bin"):
            with open(os.path.join(path, name), "rb") as fh:
                out.append(fh.read())
    return out


def save_crash(path: str, seed: int, index: int, data: bytes) -> str:
    """Persist a finding as ``crash-s<seed>-<index>.bin`` under *path*
    (created if needed); returns the file path."""
    os.makedirs(path, exist_ok=True)
    name = f"crash-s{seed}-{index:04d}.bin"
    full = os.path.join(path, name)
    with open(full, "wb") as fh:
        fh.write(data)
    return full
