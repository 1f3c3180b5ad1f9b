"""The SessionUnit serializable state surface (freeze/thaw/transfer)."""

import dataclasses
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FrozenSession, THINCServer
from repro.core.resilience import ResilienceConfig
from repro.net import Connection, EventLoop, LAN_DESKTOP
from repro.protocol import wire
from repro.protocol.limits import LIMITS
from repro.region import Rect


def sample_frozen(**over):
    base = dict(
        token=7, viewport=(96, 64), view_rect=Rect(0, 0, 96, 64),
        degraded=False, shed_display=True,
        log_dropped=False, last_seq=41, acked_seq=39,
        journal=((40, b"frame-40"), (41, b"frame-41")),
        commands=(), replay=(b"replayed",), control=(b"ctl",),
        stats={"messages_sent": 12, "bytes_sent": 3400, "flush_periods": 9,
               "cpu_time": 0.125, "audio_dropped": 0, "display_shed": 1,
               "uplink_dropped": 0, "wire_errors": 2})
    base.update(over)
    return FrozenSession(**base)


class TestRoundTrip:
    def test_exact_round_trip(self):
        frozen = sample_frozen()
        assert FrozenSession.from_bytes(frozen.to_bytes()) == frozen

    def test_flags_round_trip_independently(self):
        for field, value in (("degraded", True), ("log_dropped", True),
                             ("shed_display", False), ("tile_mode", True)):
            frozen = sample_frozen(**{field: value})
            thawed = FrozenSession.from_bytes(frozen.to_bytes())
            assert getattr(thawed, field) is value, field

    @settings(max_examples=60, deadline=None)
    @given(token=st.integers(min_value=0, max_value=2**32 - 1),
           last_seq=st.integers(min_value=0, max_value=2**32 - 1),
           journal=st.lists(st.tuples(
               st.integers(min_value=0, max_value=2**32 - 1),
               st.binary(max_size=64)), max_size=8).map(tuple),
           blobs=st.lists(st.binary(max_size=32), max_size=4).map(tuple))
    def test_round_trip_property(self, token, last_seq, journal, blobs):
        frozen = sample_frozen(token=token, last_seq=last_seq,
                               acked_seq=min(39, last_seq),
                               journal=journal,
                               replay=blobs, control=blobs)
        assert FrozenSession.from_bytes(frozen.to_bytes()) == frozen


class TestValidation:
    def test_truncated_blob_raises_typed_error(self):
        data = sample_frozen().to_bytes()
        for cut in (0, 1, 5, len(data) // 2, len(data) - 1):
            with pytest.raises(wire.ProtocolError):
                FrozenSession.from_bytes(data[:cut])

    def test_trailing_garbage_rejected(self):
        data = sample_frozen().to_bytes()
        with pytest.raises(wire.ProtocolError):
            FrozenSession.from_bytes(data + b"\x00")

    def test_unknown_version_rejected(self):
        data = sample_frozen().to_bytes()
        with pytest.raises(wire.ProtocolError):
            FrozenSession.from_bytes(b"\x09" + data[1:])

    # Offsets into the v4 fixed part: version token viewport view |
    # flags last_seq acked_seq | seven counters | cpu_time.
    FLAGS = struct.calcsize(">BIHHHHHH")
    ACKED = FLAGS + struct.calcsize(">BI")
    CPU_TIME = ACKED + struct.calcsize(">I") + struct.calcsize(">IQIIIII")

    @pytest.mark.parametrize("offset, patch", [
        (CPU_TIME, struct.pack(">d", float("nan"))),
        (CPU_TIME, struct.pack(">d", float("inf"))),
        (FLAGS, b"\x12"),  # the sample's 0x02 plus undefined bit 0x10
        (ACKED, struct.pack(">I", 99)),  # past last_seq = 41
    ], ids=["nan-cpu-time", "inf-cpu-time", "undefined-flag",
            "acked-ahead"])
    def test_out_of_range_field_rejected_before_any_object(
            self, offset, patch):
        data = bytearray(sample_frozen().to_bytes())
        data[offset:offset + len(patch)] = patch
        with pytest.raises(wire.FieldRangeError):
            FrozenSession.from_bytes(bytes(data))

    def test_oversize_transfer_rejected_at_encode(self):
        huge = sample_frozen(
            replay=(b"\x00" * (LIMITS.max_transfer_bytes + 1),))
        with pytest.raises(wire.ProtocolError):
            huge.to_bytes()


class TestLiveFreezeThaw:
    def make_server(self, loop, **server_kw):
        config = ResilienceConfig(
            heartbeat_interval=0.1, liveness_timeout=0.35,
            check_interval=0.05, backoff_base=0.05, backoff_jitter=0.2,
            detach_window=5.0)
        return THINCServer(loop, 96, 64, resilience=config, **server_kw)

    def attach(self, loop, server, token=0):
        conn = Connection(loop, LAN_DESKTOP)
        server.resilience.accept(conn)
        got = []
        conn.down.connect(got.append)
        conn.up.write(wire.wrap_checked(wire.encode_message(
            wire.ReconnectRequestMessage(token, 0)), 0))
        loop.run_until(loop.now + 0.1)
        return server.sessions[-1]

    def test_freeze_detaches_and_thaw_restores_on_a_peer(self):
        loop = EventLoop()
        src, dst = self.make_server(loop), self.make_server(loop)
        session = self.attach(loop, src)
        token = session.token
        frozen = session.freeze()
        assert session.detached
        assert frozen.token == token
        src.detach_client(session)

        wire_copy = FrozenSession.from_bytes(frozen.to_bytes())
        successor = dst.thaw_session(wire_copy)
        assert successor in dst.sessions
        assert successor.guard is not None
        assert dst.resilience.find(token) is successor
        assert successor._writer.last_seq == frozen.last_seq
        assert successor.stats["messages_sent"] == \
            frozen.stats["messages_sent"]
        # The thawed unit freezes back to the same surface (fresh
        # guard bookkeeping aside, the state is the state).
        refrozen = successor.freeze()
        assert dataclasses.asdict(refrozen) == dataclasses.asdict(
            dataclasses.replace(frozen))

    def test_a_lying_ack_cannot_poison_the_frozen_surface(self):
        """The ack mark is held to what was sent, so a client acking
        frames it was never sent still freezes to a blob a peer thaws."""
        loop = EventLoop()
        session = self.attach(loop, self.make_server(loop))
        session.connection.up.write(wire.encode_message(
            wire.HeartbeatMessage(0xFFFFFFFF, 0.0)))
        loop.run_until(loop.now + 0.05)
        frozen = session.freeze()
        assert frozen.acked_seq == frozen.last_seq > 0
        assert FrozenSession.from_bytes(frozen.to_bytes()) == frozen

    def test_migration_does_not_launder_the_wire_error_tally(
            self, monkeypatch):
        """A session one decode failure short of its error budget on
        one shard is still one short after being migrated."""
        monkeypatch.setattr("repro.core.governor.MAX_UPLINK_ERRORS", 3)
        loop = EventLoop()
        src = self.make_server(loop)
        dst = self.make_server(loop)
        session = self.attach(loop, src)
        token = session.token
        bad = wire.frame_message(99, b"garbage")
        for _ in range(3):
            session.connection.up.write(bad)
            loop.run_until(loop.now + 0.05)
        assert not session.quarantined
        frozen = session.freeze()
        src.detach_client(session)

        dst.thaw_session(FrozenSession.from_bytes(frozen.to_bytes()))
        successor = self.attach(loop, dst, token=token)
        assert successor.token == token and not successor.detached
        assert not successor.quarantined
        successor.connection.up.write(bad)
        loop.run_until(loop.now + 0.05)
        assert successor.quarantined
        assert successor not in dst.sessions

    def test_thaw_rejects_a_view_rect_outside_the_screen(self):
        loop = EventLoop()
        dst = self.make_server(loop)
        crafted = FrozenSession.from_bytes(sample_frozen(
            view_rect=Rect(500, 500, 2000, 2000)).to_bytes())
        with pytest.raises(wire.FieldRangeError):
            dst.thaw_session(crafted)
        assert dst.sessions == []

    def test_thaw_rejects_a_token_without_a_resilience_plane(self):
        """A non-zero token means the plane guards the unit; a server
        with no plane has nothing to guard it with."""
        dst = THINCServer(EventLoop(), 96, 64)
        with pytest.raises(wire.FieldRangeError):
            dst.thaw_session(sample_frozen(token=7))
        assert dst.sessions == []
        assert dst.thaw_session(sample_frozen(token=0)) in dst.sessions
