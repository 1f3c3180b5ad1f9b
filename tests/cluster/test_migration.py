"""Live migration: fidelity vs an uninterrupted twin.

A session migrated between shards mid-workload ends **pixel-identical**
to a session that was never migrated at all.  The rig makes that
comparison literal — every shard screen runs the same scripted
workload, so the co-resident client that never moved *is* the
uninterrupted twin.  Migration layered over fault schedules is rows of
tests/scenario/test_regressions.py.
"""

import numpy as np
import pytest

from repro.core import THINCClient, THINCServer
from repro.core.session_unit import FrozenSession
from repro.display import WindowServer
from repro.net import Connection, EventLoop, LAN_DESKTOP
from repro.protocol import wire
from repro.protocol.commands import RawCommand, SFillCommand, decode_command
from repro.region import Rect

from tests.helpers import assert_pixel_identical, make_shard_rig

SETTLE = 12.0


def migrate_first(loop, coord, rcs, at=1.0, settle=SETTLE):
    """Attach, migrate the first client's session at *at*, settle.

    Returns ``(token, source, target, successor)``.
    """
    loop.run_until(at)
    token = rcs[0].token
    assert token, "client never attached"
    source = coord.route_token(token)
    target = (source + 1) % len(coord.shards)
    successor = coord.migrate(token, target)
    loop.run_until(settle)
    return token, source, target, successor


def put_photo(screens, seed=5):
    """Put one opaque random photo over every (mirrored) screen; its
    RAW is still preparing on the plane when this returns."""
    height, width = screens[0].screen.fb.data.shape[:2]
    pixels = np.random.default_rng(seed).integers(
        0, 256, (height, width, 4), dtype=np.uint8)
    pixels[..., 3] = 255
    for ws in screens:
        ws.put_image(ws.screen, ws.screen.bounds, pixels)


class TestMigrationFidelity:
    def test_migrated_session_matches_uninterrupted_twin(self):
        loop, coord, screens, rcs = make_shard_rig(shards=2, clients=2)
        token, source, target, successor = migrate_first(loop, coord, rcs)
        # Pixel-identical to the live screen on the *new* shard...
        assert coord.route_token(token) == target
        assert_pixel_identical(rcs[0].client, screens[target])
        # ...and byte-identical to the twin that never migrated.
        assert_pixel_identical(rcs[1].client, screens[
            coord.route_token(rcs[1].token)])
        assert np.array_equal(rcs[0].client.fb.data, rcs[1].client.fb.data)
        # The client kept its token: migration looked like a blip.
        assert rcs[0].token == token

    def test_migration_outage_is_bounded_by_detach_window(self):
        loop, coord, screens, rcs = make_shard_rig(shards=2, clients=1)
        loop.run_until(1.0)
        token = rcs[0].token
        target = (coord.route_token(token) + 1) % 2
        severed_at = loop.now
        successor = coord.migrate(token, target)
        loop.run_until(SETTLE)
        # The successor saw the reattach well inside the detach window
        # (liveness timeout + backoff, not the 5 s budget).
        assert coord.shards[target].resilience.find(token) is successor
        assert successor.detached_at is None  # reattached
        assert rcs[0].stats["dials"] >= 2
        assert loop.now > severed_at
        st = coord.shards[target].resilience.stats
        assert st["resyncs_replay"] + st["resyncs_snapshot"] >= 1

    def test_migrated_counters_and_journal_survive(self):
        loop, coord, screens, rcs = make_shard_rig(shards=2, clients=1)
        loop.run_until(1.0)
        token = rcs[0].token
        source = coord.route_token(token)
        before = dict(coord.shards[source].resilience.find(token).stats)
        successor = coord.migrate(token, (source + 1) % 2)
        after = successor.stats
        for key in ("messages_sent", "bytes_sent", "flush_periods"):
            assert after[key] >= before[key] > 0
        loop.run_until(SETTLE)
        assert_pixel_identical(rcs[0].client, screens[
            coord.route_token(token)])

    def test_there_and_back_again(self):
        loop, coord, screens, rcs = make_shard_rig(shards=2, clients=1)
        loop.run_until(0.8)
        token = rcs[0].token
        home = coord.route_token(token)
        away = (home + 1) % 2
        coord.migrate(token, away)
        loop.run_until(6.0)
        assert coord.route_token(token) == away
        coord.migrate(token, home)
        loop.run_until(SETTLE + 6.0)
        assert coord.route_token(token) == home
        assert len(coord.migrations) == 2
        assert_pixel_identical(rcs[0].client, screens[home])

    def test_fabric_log_orders_the_handoff(self):
        loop, coord, screens, rcs = make_shard_rig(
            shards=2, clients=1, schedule_workloads=False)
        loop.run_until(0.5)
        token = rcs[0].token
        coord.migrate(token, (coord.route_token(token) + 1) % 2)
        kinds = [type(m).__name__ for m in coord.fabric_log]
        begin = kinds.index("MigrateBeginMessage")
        xfer = kinds.index("SessionTransferMessage")
        done = kinds.index("MigrateCompleteMessage")
        assert begin < xfer < done
        transfer = coord.fabric_log[xfer]
        assert isinstance(transfer, wire.SessionTransferMessage)
        assert transfer.token == token and len(transfer.state) > 0
        assert coord.transfer_bytes >= len(transfer.state)

    def test_in_flight_command_travels_in_the_blob(self):
        """A RAW whose prepare completion is still scheduled on the
        source at the freeze is listed in the transfer blob after the
        buffered commands; its late completion lands in the source's
        own detached unit, nothing more reaches the successor from
        there, and the redialled client ends pixel-exact."""
        loop, coord, screens, rcs = make_shard_rig(
            shards=2, clients=1, schedule_workloads=False)
        loop.run_until(0.5)
        token = rcs[0].token
        source = coord.route_token(token)
        target = (source + 1) % 2
        session = coord.shards[source].resilience.find(token)
        # Lose the client: until it redials, the detached unit keeps
        # what it buffers, so the fill stays queued.
        coord.relay.sever(token)
        while not session.detached:
            assert loop.now < SETTLE, "the source never noticed"
            loop.run_until(loop.now + 0.01)
        for ws in screens:
            ws.fill_rect(ws.screen, Rect(0, 0, 40, 20), (1, 2, 3, 255))
        loop.run_until(loop.now + 0.001)
        put_photo(screens)
        successor = coord.migrate(token, target)
        transfer = next(m for m in coord.fabric_log
                        if isinstance(m, wire.SessionTransferMessage))
        listed = [decode_command(blob) for blob in
                  FrozenSession.from_bytes(transfer.state).commands]
        assert [type(c) for c in listed] == [SFillCommand, RawCommand]
        assert listed[1].dest == screens[source].screen.bounds
        home_in = session.buffer.stats["commands_in"]
        away_in = successor.buffer.stats["commands_in"]
        loop.run_until(SETTLE)
        assert session.buffer.stats["commands_in"] == home_in + 1
        assert successor.buffer.stats["commands_in"] == away_in
        assert_pixel_identical(rcs[0].client, screens[target])


def frames_written(unit):
    """``(seq, journaled)`` for every plaintext frame *unit* writes from
    now on: ``seq`` is a CHECKED frame's sequence number, None for a
    bare one, and ``journaled`` says the frame is in the unit's journal
    as it leaves."""
    out, stage = [], unit.frame_stage
    encrypt = stage.encrypt

    def spy(data):
        msg = wire.StreamParser().feed(data)[0]
        seq = msg.seq if isinstance(msg, wire.CheckedFrame) else None
        out.append((seq, (seq, data) in unit.journal))
        return encrypt(data)

    stage.encrypt = spy
    return out


class TestSuccessorFraming:
    """A successor frames what it sends by the token it was thawed
    with: the blob holds no second field that could disagree."""

    def test_a_guarded_successor_writes_checked_journaled_frames(self):
        loop, coord, screens, rcs = make_shard_rig(shards=2, clients=1)
        loop.run_until(1.0)
        token = rcs[0].token
        source = coord.route_token(token)
        successor = coord.migrate(token, (source + 1) % 2)
        last_seq = successor.frame_stage.last_seq
        written = frames_written(successor)
        loop.run_until(SETTLE)
        fresh = [seq for seq, _ in written if seq is None or seq > last_seq]
        assert fresh == list(range(last_seq + 1,
                                   successor.frame_stage.last_seq + 1))
        assert fresh and all(journaled for _, journaled in written)
        assert rcs[0].stats["dials"] == 2
        assert rcs[0].stats["protocol_errors"] == 0
        assert_pixel_identical(rcs[0].client, screens[
            coord.route_token(token)])

    def test_a_thawed_plain_unit_writes_bare_frames(self):
        loop = EventLoop()
        src, dst = THINCServer(loop, 96, 64), THINCServer(loop, 96, 64)
        ws = WindowServer(96, 64, driver=src.driver, clock=loop.clock)
        src.attach_client(Connection(loop, LAN_DESKTOP))
        ws.fill_rect(ws.screen, Rect(0, 0, 40, 20), (1, 2, 3, 255))
        # Frozen before the loop runs: the greeting and the fill travel.
        frozen = src.sessions[0].freeze()
        src.detach_client(src.sessions[0])
        unit = dst.thaw_session(FrozenSession.from_bytes(frozen.to_bytes()))
        written = frames_written(unit)
        conn = Connection(loop, LAN_DESKTOP)
        client = THINCClient(loop, conn)
        unit.rebind(conn)
        loop.run_until_idle()
        assert written == [(None, False)] * 2
        assert not unit.journal and unit.frame_stage.last_seq == 0
        assert unit.stats["messages_sent"] == frozen.stats[
            "messages_sent"] + 2
        assert_pixel_identical(client, ws)


def _refuse(error):
    def refuse(*args, **kw):
        raise error("refused in transit")
    return refuse


@pytest.mark.parametrize("stage, error", [
    ("decode", wire.TruncatedPayloadError),
    ("thaw", wire.FieldRangeError),
    ("encode", wire.FrameTooLargeError),
])
def test_failed_transfer_keeps_the_session_home(monkeypatch, stage, error):
    """A transfer that fails to encode, decode or thaw re-raises its
    typed error, and the session stays on its source shard: the
    client's redial resyncs it there under the same token.  A photo
    still preparing at the freeze stays with it and is delivered."""
    loop, coord, screens, rcs = make_shard_rig(shards=2, clients=1)
    loop.run_until(1.0)
    rc, token = rcs[0], rcs[0].token
    source = coord.route_token(token)
    session = coord.shards[source].resilience.find(token)
    put_photo(screens)
    photo = session._preparing[-1]
    target = (source + 1) % 2
    routes = dict(coord.routes)
    owner, name = {"decode": (FrozenSession, "from_bytes"),
                   "thaw": (coord.shards[target], "thaw_session"),
                   "encode": (FrozenSession, "to_bytes")}[stage]
    with monkeypatch.context() as patch:
        patch.setattr(owner, name, _refuse(error))
        with pytest.raises(error):
            coord.migrate(token, target)
    assert coord.routes == routes
    assert photo in session._preparing
    loop.run_until(SETTLE)
    assert not session._preparing
    owners = [k for k, server in enumerate(coord.shards)
              if server.resilience.find(token) is not None]
    assert owners == [source] and coord.route_token(token) == source
    assert rc.token == token
    assert_pixel_identical(rc.client, screens[source])
