"""Property tests for the hardened wire codec.

Two laws, checked for *every* declared layout — the 24 control
messages, the seven display commands and ``FrozenSession``:

1. encode → decode is the identity (wire messages framed through the
   real stream machinery, not just ``decode_payload``), and a command's
   ``wire_size()`` is the length of its encoding;
2. any mutation of valid bytes either parses or raises
   :class:`~repro.protocol.wire.ProtocolError` — never ``struct.error``,
   ``IndexError``, ``UnicodeDecodeError`` or silent garbage.

Plus deterministic spot checks for each typed limit in
``repro.protocol.limits``.
"""

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.session_unit import FrozenSession
from repro.fuzz.mutator import Mutator
from repro.protocol import commands, schema, wire
from repro.protocol.limits import LIMITS
from repro.protocol.spec import UPLINK_TYPE_IDS

from .strategies import same_message, strategy_for
from .test_wire_golden import GOLDEN

#: One strategy per wire id, read off its field table.
STRATEGIES = {cls: strategy_for(cls) for cls in schema.REGISTRY.values()}

messages = st.one_of(*STRATEGIES.values())


def test_every_control_class_has_a_strategy():
    """The property tests cover the codec exhaustively: registering a
    wire id — control message or display command — that
    ``strategy_for`` cannot build is a test failure."""
    assert len(STRATEGIES) == 31
    assert set(STRATEGIES) == set(wire._CONTROL_TYPES.values()) | set(
        commands.COMMAND_TYPES.values())


@settings(max_examples=300, deadline=None)
@given(msg=messages | strategy_for(FrozenSession))
def test_encode_decode_identity(msg):
    if isinstance(msg, FrozenSession):
        assert FrozenSession.from_bytes(msg.to_bytes()) == msg
        return
    framed = wire.encode_message(msg)
    (parsed,) = wire.parse_messages(framed)
    assert same_message(parsed, msg)
    if isinstance(msg, commands.Command):
        assert msg.wire_size() == len(msg.encode()) \
            == len(framed) - wire.FRAME_OVERHEAD + 1
        assert same_message(commands.decode_command(msg.encode()), msg)


@settings(max_examples=200, deadline=None)
@given(cmd=st.one_of(*(strategy_for(cls)
                       for cls in commands.COMMAND_TYPES.values())))
def test_a_decoded_command_takes_its_wire_size_from_its_frame(cmd):
    """The client charges its cost model a decoded command's wire size
    without encoding it again: the frame's length must be what encoding
    the decoded command gives."""
    framed = wire.encode_message(cmd)
    (parsed,) = wire.StreamParser().feed(framed)
    assert parsed.wire_size() == len(framed) - wire.FRAME_OVERHEAD + 1
    assert parsed.wire_size() == 1 + len(parsed.encode_payload())


@settings(max_examples=100, deadline=None)
@given(msgs=st.lists(messages, min_size=1, max_size=4), data=st.data())
def test_chunked_feeds_parse_like_one_feed(msgs, data):
    """Cut anywhere — inside a header, inside a payload — the stream
    parses to the same messages, and nothing is left pending."""
    stream = b"".join(wire.encode_message(m) for m in msgs)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)),
                                     max_size=8)))
    parser = wire.StreamParser()
    got = []
    for a, b in zip([0] + cuts, cuts + [len(stream)]):
        got += parser.feed(stream[a:b])
    assert parser.pending_bytes == 0
    assert len(got) == len(msgs)
    assert all(same_message(g, m) for g, m in zip(got, msgs))


def test_mutated_frozen_blobs_raise_only_protocol_error():
    """The blob crosses the fabric: 5 000 seeded mutations of the
    golden one either thaw or fail typed."""
    blob = bytes.fromhex(json.loads(GOLDEN.read_text())["frozen_session"])
    thawed = 0
    for case in Mutator(54, [blob], coverage=False).cases(5000):
        try:
            FrozenSession.from_bytes(case)
            thawed += 1
        except wire.ProtocolError:
            pass  # the only exception family the contract allows
    assert 0 < thawed < 5000


@settings(max_examples=300, deadline=None)
@given(msg=messages, data=st.data())
def test_mutated_frames_raise_only_protocol_error(msg, data):
    buf = bytearray(wire.encode_message(msg))
    for _ in range(data.draw(st.integers(1, 6))):
        mode = data.draw(st.sampled_from(("flip", "set", "truncate",
                                          "extend")))
        if mode == "flip" and buf:
            pos = data.draw(st.integers(0, len(buf) - 1))
            buf[pos] ^= 1 << data.draw(st.integers(0, 7))
        elif mode == "set" and buf:
            pos = data.draw(st.integers(0, len(buf) - 1))
            buf[pos] = data.draw(st.integers(0, 255))
        elif mode == "truncate" and len(buf) > 1:
            del buf[data.draw(st.integers(1, len(buf) - 1)):]
        elif mode == "extend":
            buf += data.draw(st.binary(max_size=16))
    parser = wire.StreamParser()
    try:
        for _ in parser.feed(bytes(buf)):
            pass
    except wire.ProtocolError:
        pass  # the only exception family the contract allows


class TestTypedLimits:
    """Deterministic spot checks, one per decode limit."""

    def test_truncated_payload_is_typed(self):
        framed = wire.encode_message(wire.ResizeMessage(64, 48))
        with pytest.raises(wire.ProtocolError):
            wire.parse_messages(framed[:-1])

    def test_trailing_garbage_is_typed(self):
        msg = wire.HeartbeatMessage(1, 2.0)
        framed = wire.frame_message(msg.type_id,
                                    msg.encode_payload() + b"!")
        with pytest.raises(wire.ProtocolError):
            wire.parse_messages(framed)

    def test_lying_length_field_trips_frame_cap(self):
        huge = wire.frame_message(wire.HeartbeatMessage.type_id, b"")
        buf = bytearray(huge)
        buf[1:5] = struct.pack(">I", LIMITS.max_frame_bytes + 1)
        parser = wire.StreamParser()
        with pytest.raises(wire.FrameTooLargeError):
            parser.feed(bytes(buf))

    def test_pending_cap_bounds_parser_memory(self):
        parser = wire.StreamParser(max_pending=64)
        header = struct.pack(">BI", wire.HeartbeatMessage.type_id, 1 << 20)
        with pytest.raises(wire.FrameTooLargeError):
            parser.feed(header + b"\x00" * 64)

    def test_pending_cap_holds_while_a_frame_is_short(self):
        parser = wire.StreamParser(max_pending=64)
        header = struct.pack(">BI", wire.HeartbeatMessage.type_id, 1 << 20)
        assert parser.feed(header + b"\x00" * 59) == []  # at the cap
        with pytest.raises(wire.FrameTooLargeError):
            parser.feed(b"\x00")

    def test_header_is_checked_when_it_completes_and_after(self):
        parser = wire.StreamParser(allowed=UPLINK_TYPE_IDS)
        framed = wire.encode_message(wire.ScreenInitMessage(64, 48))
        assert parser.feed(framed[:wire.FRAME_OVERHEAD - 1]) == []
        with pytest.raises(wire.FieldRangeError):
            parser.feed(framed[wire.FRAME_OVERHEAD - 1:wire.FRAME_OVERHEAD])
        with pytest.raises(wire.FieldRangeError):  # still in the buffer
            parser.feed(b"")

    def test_disallowed_type_id_is_rejected(self):
        parser = wire.StreamParser(allowed=UPLINK_TYPE_IDS)
        framed = wire.encode_message(wire.ScreenInitMessage(64, 48))
        with pytest.raises(wire.FieldRangeError):
            parser.feed(framed)

    @pytest.mark.parametrize("at", [1, 14])  # outer, inner length
    def test_checked_lengths_disagreeing_fail_at_the_header(self, at):
        framed = bytearray(wire.wrap_checked(
            wire.encode_message(wire.HeartbeatMessage(1, 0.5)), 2))
        framed[at:at + 4] = struct.pack(
            ">I", struct.unpack_from(">I", framed, at)[0] + 1000)
        parser = wire.StreamParser()
        assert parser.feed(bytes(framed[:17])) == []
        with pytest.raises(wire.ChecksumError):
            parser.feed(bytes(framed[17:18]))  # the rest never comes

    @pytest.mark.parametrize("length", [0, 8, 12])
    def test_a_short_checked_frame_fails_at_completion(self, length):
        framed = wire.frame_message(wire.CheckedFrame.type_id,
                                    bytes(length))
        parser = wire.StreamParser()
        assert parser.feed(framed[:-1]) == []
        with pytest.raises(wire.TruncatedPayloadError):
            parser.feed(framed[-1:])

    def test_nested_checked_frames_rejected(self):
        inner = wire.wrap_checked(
            wire.encode_message(wire.HeartbeatMessage(1, 0.5)), 2)
        nested = wire.wrap_checked(inner, 3)
        with pytest.raises(wire.FieldRangeError):
            wire.parse_messages(nested)

    def test_cursor_dimension_limit(self):
        dim = LIMITS.max_cursor_dim + 1
        payload = struct.pack(">HHHH", 0, 0, dim, dim)
        with pytest.raises(wire.FieldRangeError):
            wire.CursorImageMessage.decode_payload(payload)

    def test_audio_chunk_limit(self):
        payload = struct.pack(">d", 0.0) + b"\x00" * (
            LIMITS.max_audio_chunk_bytes + 1)
        with pytest.raises(wire.FrameTooLargeError):
            wire.AudioChunkMessage.decode_payload(payload)

    def test_non_finite_float_is_rejected(self):
        payload = struct.pack(">Id", 1, float("nan"))
        with pytest.raises(wire.FieldRangeError):
            wire.HeartbeatMessage.decode_payload(payload)

    def test_transfer_state_limit(self):
        payload = struct.pack(">I", 1) + b"\x00" * (
            LIMITS.max_transfer_bytes + 1)
        with pytest.raises(wire.FrameTooLargeError):
            wire.SessionTransferMessage.decode_payload(payload)

    def test_shard_id_limit(self):
        payload = struct.pack(">IH", 1, LIMITS.max_shard_id + 1)
        with pytest.raises(wire.FieldRangeError):
            wire.MigrateBeginMessage.decode_payload(payload)

    def test_fabric_frames_rejected_on_uplink(self):
        parser = wire.StreamParser(allowed=UPLINK_TYPE_IDS)
        framed = wire.encode_message(
            wire.SessionTransferMessage(7, b"state"))
        with pytest.raises(wire.FieldRangeError):
            parser.feed(framed)

    def test_qos_rung_limit(self):
        payload = struct.pack(">HBBBB", 1, LIMITS.max_qos_rung + 1, 1,
                              0, 0)
        with pytest.raises(wire.FieldRangeError):
            wire.VideoQualityMessage.decode_payload(payload)

    def test_fps_divisor_of_zero_is_rejected(self):
        payload = struct.pack(">HBBBB", 1, 0, 0, 0, 0)
        with pytest.raises(wire.FieldRangeError):
            wire.VideoQualityMessage.decode_payload(payload)

    def test_scale_shift_limit(self):
        payload = struct.pack(">HBBBB", 1, 2, 2,
                              LIMITS.max_scale_shift + 1, 0)
        with pytest.raises(wire.FieldRangeError):
            wire.VideoQualityMessage.decode_payload(payload)

    def test_qos_qstep_limit(self):
        payload = struct.pack(">HBBBB", 1, 3, 2, 1,
                              LIMITS.max_qos_qstep + 1)
        with pytest.raises(wire.FieldRangeError):
            wire.VideoQualityMessage.decode_payload(payload)

    def test_qos_report_quality_range(self):
        payload = struct.pack(">HIddd", 1, 10, 1.5, 1.0, 0.0)
        with pytest.raises(wire.FieldRangeError):
            wire.QosReportMessage.decode_payload(payload)

    def test_qos_report_skew_limit(self):
        payload = struct.pack(">HIddd", 1, 10, 1.0, 1.0,
                              LIMITS.max_av_skew * 2)
        with pytest.raises(wire.FieldRangeError):
            wire.QosReportMessage.decode_payload(payload)

    def test_video_quality_rejected_on_uplink(self):
        parser = wire.StreamParser(allowed=UPLINK_TYPE_IDS)
        framed = wire.encode_message(wire.VideoQualityMessage(1, 0))
        with pytest.raises(wire.FieldRangeError):
            parser.feed(framed)

    def test_parser_consumes_good_prefix_before_raising(self):
        good = wire.encode_message(wire.HeartbeatMessage(4, 1.0))
        bad = wire.frame_message(99, b"junk")
        parser = wire.StreamParser()
        with pytest.raises(wire.ProtocolError):
            parser.feed(good + bad)
        # The valid prefix was consumed before the raise; only the
        # failing frame remains pending (so a reset drops exactly the
        # poison bytes, never already-applied messages).
        assert parser.pending_bytes == len(bad)
