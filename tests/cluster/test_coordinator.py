"""Coordinator: namespacing, placement overflow, routing, fabric log."""

import pytest

from repro.cluster import ShardCoordinator
from repro.net import EventLoop
from repro.protocol import wire

from tests.helpers import make_shard_rig


class TestConstruction:
    def test_needs_at_least_one_shard(self):
        with pytest.raises(ValueError):
            ShardCoordinator(EventLoop(), 0, 96, 64)

    def test_token_namespaces_are_disjoint(self):
        # Shard i mints i+1, i+1+N, ...: a token names its shard.
        coord = ShardCoordinator(EventLoop(), 3, 96, 64)
        for i, server in enumerate(coord.shards):
            plane = server.resilience
            assert plane.config.token_start == i + 1
            assert plane.config.token_stride == 3

    def test_attached_clients_get_disjoint_tokens(self):
        loop, coord, screens, rcs = make_shard_rig(
            shards=2, clients=6, schedule_workloads=False)
        loop.run_until(0.5)
        tokens = [rc.token for rc in rcs]
        assert all(tokens) and len(set(tokens)) == 6
        for token in tokens:
            shard = coord.route_token(token)
            # Minting-shard invariant: token ≡ shard+1 (mod N).
            assert (token - 1) % 2 == shard


class TestPlacement:
    def test_place_is_deterministic(self):
        a = ShardCoordinator(EventLoop(), 4, 96, 64)
        b = ShardCoordinator(EventLoop(), 4, 96, 64)
        keys = [f"dial-{i}" for i in range(1, 40)]
        assert [a.place(k) for k in keys] == [b.place(k) for k in keys]

    def test_place_overflows_past_refusing_shards(self):
        coord = ShardCoordinator(EventLoop(), 2, 96, 64)
        keys = [f"dial-{i}" for i in range(1, 33)]
        natural = {k: coord.place(k) for k in keys}
        assert set(natural.values()) == {0, 1}  # ring actually spreads
        coord.shards[0].governor.check_admission = lambda: "full"
        for k in keys:
            assert coord.place(k) == 1  # overflow lands on the peer

    def test_place_returns_none_when_fabric_is_full(self):
        coord = ShardCoordinator(EventLoop(), 2, 96, 64)
        for server in coord.shards:
            server.governor.check_admission = lambda: "full"
        assert coord.place("dial-1") is None


class TestRouting:
    def test_route_token_finds_minting_shard_via_guards(self):
        loop, coord, screens, rcs = make_shard_rig(
            shards=2, clients=2, schedule_workloads=False)
        loop.run_until(0.5)
        coord.routes.clear()  # force the session-scan fallback
        for rc in rcs:
            shard = coord.route_token(rc.token)
            assert shard is not None
            assert coord.shards[shard].resilience.find(rc.token) is not None

    def test_route_override_wins_over_guard_scan(self):
        loop, coord, screens, rcs = make_shard_rig(
            shards=2, clients=1, schedule_workloads=False)
        loop.run_until(0.5)
        coord.note_route(rcs[0].token, 1)
        assert coord.route_token(rcs[0].token) == 1

    def test_unknown_token_routes_nowhere(self):
        coord = ShardCoordinator(EventLoop(), 2, 96, 64)
        assert coord.route_token(999) is None


class TestMigrateValidation:
    def test_bad_target_and_unknown_token(self):
        loop, coord, screens, rcs = make_shard_rig(
            shards=2, clients=1, schedule_workloads=False)
        loop.run_until(0.5)
        token = rcs[0].token
        with pytest.raises(ValueError):
            coord.migrate(token, 7)
        with pytest.raises(KeyError):
            coord.migrate(999, 1)
        with pytest.raises(ValueError):
            coord.migrate(token, coord.route_token(token))


class TestFabricLog:
    def test_admission_reports_round_trip_the_codec(self):
        loop, coord, screens, rcs = make_shard_rig(
            shards=2, clients=3, schedule_workloads=False)
        loop.run_until(0.5)
        reports = coord.admission_reports()
        assert len(reports) == 2
        total = 0
        for i, report in enumerate(reports):
            assert isinstance(report, wire.ShardAdmissionReportMessage)
            assert report.shard == i and report.admitting
            total += report.sessions
        assert total == 3
        # Every report took the encode->parse round trip into the log.
        assert reports == coord.fabric_log[-2:]
        assert coord.transfer_bytes > 0

    def test_stats_shape(self):
        coord = ShardCoordinator(EventLoop(), 2, 96, 64)
        stats = coord.stats()
        assert stats["shards"] == 2 and stats["migrations"] == 0
        assert len(stats["per_shard"]) == 2
        assert "relay" in stats
        assert stats["prepare_cache_hits"] == stats[
            "prepare_cache_misses"] == 0
