"""A machine-readable specification of the THINC wire protocol.

One row per message type: its numeric id, direction, payload layout
and the paper section it comes from.  The 24 control-message rows are
*derived* from the :func:`~repro.protocol.schema.message` declarations
in :mod:`repro.protocol.wire` (name, id, direction, section, summary =
the class docstring's first paragraph, payload = the generated layout
string), so a row cannot drift from its implementation; only the seven
display commands — hand-written hot-path codecs in
:mod:`repro.protocol.commands` — are stated here by hand and checked
against their classes by the test suite.  The direction sets every
``StreamParser`` names are read off the same rows, and
:func:`render_protocol_reference` renders them to ``docs/PROTOCOL.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from inspect import cleandoc
from typing import List

from . import commands as _commands
from . import wire as _wire
from .limits import LIMITS, WireLimits

__all__ = [
    "MessageSpec",
    "PROTOCOL_SPEC",
    "WireLimits",
    "LIMITS",
    "UPLINK_TYPE_IDS",
    "DOWNLINK_TYPE_IDS",
    "FABRIC_TYPE_IDS",
    "SERVER_ACCEPTS",
    "CLIENT_ACCEPTS",
    "FABRIC_ACCEPTS",
    "render_protocol_reference",
]


@dataclass(frozen=True)
class MessageSpec:
    """One wire message type."""

    name: str
    type_id: int
    #: "s->c", "c->s", "c<->s" (either client-facing side may send it)
    #: or "s->s" (shard fabric internal).
    direction: str
    section: str  # paper section introducing it
    summary: str
    payload: str  # field layout after the [type u8][len u32] frame
    implementation: type


def _control_row(cls: type) -> MessageSpec:
    """The spec row a ``@message`` declaration stands for."""
    schema = cls.schema
    summary = " ".join(cleandoc(cls.__doc__ or "").split("\n\n")[0].split())
    return MessageSpec(schema.name, schema.type_id, schema.direction,
                       schema.section, summary, schema.layout, cls)


PROTOCOL_SPEC: List[MessageSpec] = [
    MessageSpec(
        "RAW", 1, "s->c", "3/Table 1",
        "Display raw pixel data at a given location; the last-resort "
        "command and the only one that may be compressed.  The encoding "
        "byte is a bounded enum (<= max_raw_encoding) naming how the "
        "payload is packed: 0 raw rows, 1 PNG-model (the paper's "
        "choice), 2 RLE, 3 JPEG-style lossy; see the encoding ladder "
        "below.",
        "rect[4xu16] encoding[u8] length[u32] payload[length]",
        _commands.RawCommand),
    MessageSpec(
        "COPY", 2, "s->c", "3/Table 1",
        "Copy a framebuffer area to new coordinates; accelerates "
        "scrolling and opaque window movement with no pixel resend.",
        "rect[4xu16] src_x[u16] src_y[u16]",
        _commands.CopyCommand),
    MessageSpec(
        "SFILL", 3, "s->c", "3/Table 1",
        "Fill an area with a single colour.",
        "rect[4xu16] rgba[4xu8]",
        _commands.SFillCommand),
    MessageSpec(
        "PFILL", 4, "s->c", "3/Table 1",
        "Tile an area with a pixel pattern; the tile travels once.",
        "rect[4xu16] tile_h[u8] tile_w[u8] origin_y[u8] origin_x[u8] "
        "tile[tile_h*tile_w*4]",
        _commands.PFillCommand),
    MessageSpec(
        "BITMAP", 5, "s->c", "3/Table 1",
        "Fill a region through a 1-bit stipple with fg (and optional "
        "bg) colours; transparent stipples carry glyph text.",
        "rect[4xu16] fg[4xu8] has_bg[u8] bg[4xu8] mask[packed bits]",
        _commands.BitmapCommand),
    MessageSpec(
        "COMPOSITE", 6, "s->c", "3 (alpha support)",
        "Porter-Duff 'over' blend of an RGBA block (anti-aliased text, "
        "translucency); payload compressed like RAW.",
        "rect[4xu16] length[u32] payload[length]",
        _commands.CompositeCommand),
    MessageSpec(
        "VFRAME", 7, "s->c", "4.2",
        "One video frame in a YUV wire format, self-contained "
        "(geometry and format ride along so frames survive stream "
        "control reordering and drops).",
        "rect[4xu16] stream[u16] frame_no[u32] format[u8] src_w[u16] "
        "src_h[u16] length[u32] yuv[length]",
        _commands.VideoFrameCommand),
] + [_control_row(cls) for _, cls in sorted(_wire._CONTROL_TYPES.items())]


def _ids(*directions: str) -> frozenset:
    return frozenset(spec.type_id for spec in PROTOCOL_SPEC
                     if spec.direction in directions)


#: Type ids a client may legitimately send to the server.  The
#: server's uplink parser rejects everything else at the frame header,
#: before any payload decode runs.
UPLINK_TYPE_IDS = _ids("c->s", "c<->s")

#: Type ids the server may send to a client.  A message declared
#: ``c<->s`` (the liveness beacon: either side may send it) appears in
#: both sets.
DOWNLINK_TYPE_IDS = _ids("s->c", "c<->s")

#: Type ids that only travel between fabric peers (coordinator and
#: shards).  They are valid on *no* client-facing stream: the uplink
#: and downlink allow-lists above exclude them by construction, so a
#: client smuggling a SESSION_TRANSFER at a server dies at the frame
#: header.
FABRIC_TYPE_IDS = _ids("s->s")

#: Parser-role aliases for the direction sets above: what each kind of
#: `StreamParser` accepts at the frame header.  Every parser
#: constructor in the tree must name one of these (never a local set
#: literal), so the spec stays the single source of truth — checked
#: mechanically by THL201 in :mod:`repro.analysis.contracts`.
SERVER_ACCEPTS = UPLINK_TYPE_IDS  # the server's uplink parser
CLIENT_ACCEPTS = DOWNLINK_TYPE_IDS  # any client's downlink parser
FABRIC_ACCEPTS = FABRIC_TYPE_IDS  # the coordinator's shard fabric


def render_protocol_reference() -> str:
    """The protocol reference document, generated from the spec."""
    lines = [
        "# THINC wire protocol reference",
        "",
        "Generated from `repro.protocol.spec`: ids 16 and up are read",
        "off the `@message` declarations in `repro.protocol.wire` (the",
        "payload column uses the attribute names of the message class),",
        "ids 1-7 are the hand-written display commands, kept in lock",
        "step by the test suite. Every message is framed as",
        "`[type u8][length u32][payload]`, big-endian throughout; when",
        "RC4 is enabled the whole framed stream is encrypted. Direction",
        "`c<->s` means either client-facing side may send the message.",
        "",
        "| id | message | dir | paper | payload |",
        "|---|---|---|---|---|",
    ]
    for spec in PROTOCOL_SPEC:
        lines.append(
            f"| {spec.type_id} | `{spec.name}` | {spec.direction} | "
            f"{spec.section} | `{spec.payload}` |")
    lines.append("")
    lines += [
        "The conformance matrix in [CONTRACTS.md](CONTRACTS.md) —",
        "generated by `python -m repro.analysis --contracts` — shows,",
        "for every id above, which parsers accept it, which dispatch",
        "sites handle it, and which payload fields are bounds-checked.",
        "",
    ]
    for spec in PROTOCOL_SPEC:
        lines.append(f"## {spec.type_id} — {spec.name}")
        lines.append("")
        lines.append(spec.summary)
        lines.append("")
    lines += [
        "## RAW payload encodings",
        "",
        "The RAW command's encoding byte names one of the",
        "`repro.codec.Encoding` values; anything above",
        "`max_raw_encoding` is rejected before payload decode.",
        "",
        "| tag | encoding | lossless | payload |",
        "|---|---|---|---|",
        "| 0 | `NONE` | yes | `h*w*4` RGBA rows, no framing |",
        "| 1 | `PNG` | yes | `h[u16] w[u16] c[u8] filter[u8]` + "
        "DEFLATE of filtered rows (filter 0 = Up, 1 = Paeth) |",
        "| 2 | `RLE` | yes | `h[u16] w[u16]` + (count[u16] rgba[4xu8]) "
        "run pairs covering exactly `h*w` pixels |",
        "| 3 | `LOSSY` | no | `h[u16] w[u16] qstep[u8]` + DEFLATE of "
        "quantised YV12 (4:2:0) + alpha planes at even-padded "
        "dimensions |",
        "",
        "Tags 0/1 coincide with the historical boolean `compressed`",
        "flag, so pre-enum streams decode unchanged.",
        "",
        "### Adaptive selection ladder",
        "",
        "With the adaptive encoder enabled, `repro.codec.EncoderPolicy`",
        "picks per command from block content and link posture (the",
        "governor's degraded flag, or measured downlink throughput at",
        "the packet monitor approaching link capacity):",
        "",
        "* solid block -> demoted to an `SFILL` command outright;",
        "* flat block (tiny palette, long runs) -> `RLE`;",
        "* otherwise -> `PNG` while the link is idle (lossless floor),",
        "  `LOSSY` under degraded posture — a later lossless refresh",
        "  restores pixel-exact content once the link drains.",
        "",
        "## Decode limits",
        "",
        "Hard bounds the decode layer (`repro.protocol.wire`) enforces",
        "on every frame; exceeding one raises a `ProtocolError`",
        "subclass. Defined in `repro.protocol.limits`.",
        "",
        "| limit | value |",
        "|---|---|",
    ]
    for field in sorted(vars(LIMITS)):
        lines.append(f"| `{field}` | {getattr(LIMITS, field)} |")
    lines.append("")
    return "\n".join(lines)
