"""The wire schema's construction-time guarantees.

What used to be lint findings (an unbounded slice, a duplicate or
unregistered id, spec/class drift) cannot be *declared* any more:
each case below fails at decoration, before a byte is parsed.  Plus
the contract the rest of the tree reads off the registry: the three
direction sets, a codec compiled from a toy declaration, and a field
table compiled for a layout that owns no wire id.
"""

import dataclasses
import struct

import pytest

from repro.protocol import schema, spec, wire
from repro.protocol.limits import LIMITS
from repro.protocol.schema import (blob, choice, f64, flag, message, rect16,
                                   rest, sized, tag, u8, u16)
from repro.region import Rect


@pytest.fixture(autouse=True)
def scratch_registry(monkeypatch):
    """Declarations made by a test land in a copy of the registry."""
    monkeypatch.setattr(schema, "REGISTRY", dict(schema.REGISTRY))


class TestBoundsAreRequired:
    @pytest.mark.parametrize("kind", [rest, tag, sized, blob])
    def test_length_bearing_kind_without_a_bound_is_a_type_error(self, kind):
        with pytest.raises(TypeError):
            kind()

    @pytest.mark.parametrize("kind", [rest, tag, sized])
    def test_bound_must_name_a_wire_limit(self, kind):
        with pytest.raises(TypeError):
            kind(max=4096)  # a literal is not a WireLimits field name
        with pytest.raises(AttributeError):
            kind(max="max_no_such_limit")

    def test_blob_factors_must_be_bounded_integer_fields(self):
        with pytest.raises(ValueError, match="not a range-bounded"):
            @message("PIXELS", 90, "s->c", "test")
            class Unbounded:
                width = u16()  # the whole u16 range: no bound declared
                pixels = blob(size=("width", 4))
        with pytest.raises(ValueError, match="not a range-bounded"):
            @message("PIXELS", 90, "s->c", "test")
            class Missing:
                pixels = blob(size=("height", 4))


class TestDeclarationErrors:
    def test_duplicate_type_id(self):
        with pytest.raises(ValueError, match="already taken"):
            @message("INPUT2", wire.InputMessage.type_id, "c->s", "test")
            class Duplicate:
                x = u16()

    def test_type_id_colliding_with_a_display_command(self):
        with pytest.raises(ValueError, match="already taken"):
            @message("NOT_RAW", 1, "s->c", "test")
            class Collides:
                x = u16()

    def test_second_variable_length_field(self):
        with pytest.raises(ValueError, match="two variable-length"):
            @message("TWO_TAILS", 90, "s->c", "test")
            class TwoTails:
                name = tag(max="max_pixel_format_len")
                body = rest(max="max_audio_chunk_bytes")

    def test_unknown_direction(self):
        with pytest.raises(ValueError, match="direction"):
            @message("SIDEWAYS", 90, "c-s", "test")
            class Sideways:
                x = u16()

    def test_failed_declaration_registers_nothing(self):
        before = dict(schema.REGISTRY)
        with pytest.raises(ValueError):
            @message("NOT_RAW", 1, "s->c", "test")
            class Collides:
                x = u16()
        assert schema.REGISTRY == before


class TestDirectionSets:
    """Equal to the literal id sets the hand-written spec produced."""

    def test_uplink(self):
        assert spec.UPLINK_TYPE_IDS == {20, 21, 24, 25, 27, 28, 36, 39}

    def test_fabric(self):
        assert spec.FABRIC_TYPE_IDS == {32, 33, 34, 35}

    def test_downlink(self):
        assert spec.DOWNLINK_TYPE_IDS == {
            1, 2, 3, 4, 5, 6, 7, 16, 17, 18, 19, 22, 23, 26, 27, 29, 30,
            31, 37, 38}

    def test_heartbeat_is_the_declared_two_way_message(self):
        both = {cls.schema.name for cls in wire._CONTROL_TYPES.values()
                if cls.schema.direction == "c<->s"}
        assert both == {"HEARTBEAT"}


def _reject_odd(msg):
    if msg.level % 2:
        raise schema.FieldRangeError("PROBE level is odd")


@pytest.fixture
def probe():
    @message("PROBE", 90, "c->s", "test", check=_reject_odd)
    class ProbeMessage:
        """A toy message using every fixed-size kind.

        Second paragraph, not part of the summary.
        """

        level = u8(0, 9)
        mode = choice(("idle", "busy"))
        urgent = flag()
        area = rect16()
        weight = f64(0.0, 1.0, default=0.5)
        note = tag(max="max_pixel_format_len", default="")
    return ProbeMessage


class TestCompiledCodec:
    def test_dataclass_shape(self, probe):
        msg = probe(2, "busy", True, Rect(1, 2, 3, 4))
        assert msg == probe(2, "busy", True, Rect(1, 2, 3, 4), 0.5, "")
        assert probe.type_id == 90 and schema.REGISTRY[90] is probe
        assert "ProbeMessage(level=2, mode='busy', urgent=True" in repr(msg)
        with pytest.raises(AttributeError):
            msg.level = 3  # frozen

    def test_layout_and_roundtrip(self, probe):
        assert probe.schema.layout == (
            "level[u8] mode[u8] urgent[u8] area[4xu16] weight[f64] "
            "note_len[u8] note[note_len]")
        msg = probe(4, "idle", False, Rect(0, 0, 7, 7), 0.25, "YV12")
        payload = msg.encode_payload()
        assert payload == struct.pack(
            ">BBBHHHHdB", 4, 0, 0, 0, 0, 7, 7, 0.25, 4) + b"YV12"
        assert probe.decode_payload(payload) == msg

    @pytest.mark.parametrize("payload, error", [
        (b"", schema.TruncatedPayloadError),
        (struct.pack(">BBBHHHHdB", 10, 0, 0, 0, 0, 1, 1, 0.5, 0),
         schema.FieldRangeError),  # level past its declared range
        (struct.pack(">BBBHHHHdB", 2, 2, 0, 0, 0, 1, 1, 0.5, 0),
         schema.FieldRangeError),  # unknown choice id
        (struct.pack(">BBBHHHHdB", 2, 0, 2, 0, 0, 1, 1, 0.5, 0),
         schema.FieldRangeError),  # flag is not 0/1
        (struct.pack(">BBBHHHHdB", 2, 0, 0, 0, 0, 1, 1, float("nan"), 0),
         schema.FieldRangeError),  # non-finite float
        (struct.pack(">BBBHHHHdB", 2, 0, 0, 0, 0, 1, 1, float("inf"), 0),
         schema.FieldRangeError),
        (struct.pack(">BBBHHHHdB", 2, 0, 0, 0, 0, 1, 1, 0.5, 17),
         schema.FieldRangeError),  # tag longer than its limit
        (struct.pack(">BBBHHHHdB", 2, 0, 0, 0, 0, 1, 1, 0.5, 3) + b"ab",
         schema.TruncatedPayloadError),  # tag shorter than declared
        (struct.pack(">BBBHHHHdB", 2, 0, 0, 0, 0, 1, 1, 0.5, 2) + b"\xff\xfe",
         schema.FieldRangeError),  # tag is not ASCII
        (struct.pack(">BBBHHHHdB", 3, 0, 0, 0, 0, 1, 1, 0.5, 0),
         schema.FieldRangeError),  # the cross-field check= validator
    ])
    def test_bounded_decode(self, probe, payload, error):
        with pytest.raises(error):
            probe.decode_payload(payload)

    def test_range_check_precedes_the_length_of_a_tag(self, probe):
        # Both wrong: level out of range and the tag bytes missing.
        payload = struct.pack(">BBBHHHHdB", 10, 0, 0, 0, 0, 1, 1, 0.5, 4)
        with pytest.raises(schema.FieldRangeError):
            probe.decode_payload(payload)

    def test_spec_row_is_derived_from_the_declaration(self, probe):
        row = spec._row(probe)
        assert (row.name, row.type_id, row.direction, row.section) == (
            "PROBE", 90, "c->s", "test")
        assert row.summary == "A toy message using every fixed-size kind."
        assert row.payload == probe.schema.layout
        assert row.implementation is probe

    def test_checked_declares_its_rows(self):
        # Its attributes are not its rows: it maps them itself.
        checked = wire.CheckedFrame
        assert list(checked.schema.fields) == ["crc32", "seq", "inner"]
        assert [f.name for f in dataclasses.fields(checked)] == [
            "seq", "message"]
        assert checked.schema.check is wire._check_checked


def test_field_table_without_a_wire_id():
    """The compiler half alone: no class, no registry entry."""
    def ordered(row):
        if row.lo > row.hi:
            raise schema.FieldRangeError("lo is past hi")

    before = dict(schema.REGISTRY)
    table = schema.FieldTable(
        "SPAN", dict(lo=u8(), hi=u8(0, 9), label=sized(max="max_frame_bytes")),
        check=ordered)
    assert schema.REGISTRY == before
    assert table.layout == "lo[u8] hi[u8] label_len[u32] label[label_len]"
    data = table.pack(2, 7, b"ab")
    assert data == struct.pack(">BBI", 2, 7, 2) + b"ab"
    assert table.parse(data) == [2, 7, b"ab"]
    for bad, error in ((data + b"!", schema.TruncatedPayloadError),
                       (table.pack(8, 7, b""), schema.FieldRangeError)):
        with pytest.raises(error):
            table.parse(bad)


def test_rest_is_capped_before_any_field_is_checked():
    # AUDIO: an oversized chunk with a NaN timestamp is "too large",
    # not "bad field" — the parent's precedence, kept by the schema.
    payload = struct.pack(">d", float("nan")) + bytes(
        LIMITS.max_audio_chunk_bytes + 1)
    with pytest.raises(schema.FrameTooLargeError):
        wire.AudioChunkMessage.decode_payload(payload)
