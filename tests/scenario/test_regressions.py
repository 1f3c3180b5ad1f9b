"""Hand-picked schedules, as data: one table, one build → quiesce → check.

Each row is a scenario the state machine could in principle find — the
pairwise chaos schedules earlier PRs wrote as bespoke tests, and the
shrunk script of every defect the machine has found — plus, where the
oracle's clauses are not the whole point, a predicate over the finished
run.  ``make chaos`` re-rolls the seeded rows with ``THINC_CHAOS_SEED``.
"""

import os
from dataclasses import replace

import pytest

from repro.cluster.scenario import ClientSpec, Op, Scenario
from repro.core.fanout import TileWall
from repro.core.governor import ServerBudget
from repro.core.qos import QosConfig
from repro.core.session_unit import FrozenSession
from repro.net.faults import FaultPlan, LossBurst, Partition
from repro.protocol import wire

from ..helpers import client_spec, fast_qos
from .machine import BASES, CLIP, THIN

CHAOS_SEED = int(os.environ.get("THINC_CHAOS_SEED", "0"))


#: The wall tile the fan-out row's client takes: (cols, rows, index).
TILE = (3, 2, 4)


def tile_on_its_new_home(run):
    shard, session = run.home(0)
    return (shard == 1 and session.tile_mode
            and session.scaler.view == TileWall.grid(
                run.scenario.width, run.scenario.height, *TILE[:2])[TILE[2]])


def ladder_engaged_and_rung_travelled(run):
    carried = [FrozenSession.from_bytes(m.state) for m in run.coord.fabric_log
               if isinstance(m, wire.SessionTransferMessage)]
    downs = sum(s.stats.get("qos_rungs_down", 0)
                + s.governor.stats["video_rungs_shed"] for s in run.servers)
    return carried and downs >= 1 and run.home(0)[0] == 1


def refusal_changed_nothing(run):
    return ([len(s.sessions) for s in run.servers] == [2, 2]
            and not run.coord.fabric_log and not run.coord.migrations
            and run.coord.relay.stats["severed"] == 0)


RANDOM = FaultPlan.random(seed=1000 + CHAOS_SEED, horizon=2.0)
MIRRORED = ("scripted", {"end": 1.5, "seed": CHAOS_SEED or 7})

ROWS = {
    # -- the pairwise schedules (PRs 5, 9, 10) -------------------------------
    "migration-x-chaos": (Scenario(
        shards=2, clients=(client_spec(plan=RANDOM),) * 2, workload=MIRRORED,
        ops=(Op(1.0, "migrate", 0, (1,)),), settle=16.0), None),
    "migration-during-a-fault-window": (Scenario(
        shards=2, workload=MIRRORED, settle=16.0, clients=(client_spec(plan=FaultPlan(
            [LossBurst(0.9, 0.6, drop_rate=0.4)], seed=CHAOS_SEED or 5)),),
        ops=(Op(1.0, "migrate", 0, (1,)),)), None),
    # Any one SUBSCRIBE may be eaten by a fault, so it is re-sent (it is
    # idempotent) until past the plan's horizon, then the session moves.
    "migration-x-fan-out-x-chaos": (Scenario(
        shards=2, clients=(client_spec(plan=RANDOM),) * 2, workload=MIRRORED,
        ops=tuple(Op(t, "subscribe", 0, TILE) for t in (2.1, 2.6, 3.1, 3.6))
        + (Op(4.2, "migrate", 0, (1,)),), settle=16.0),
        tile_on_its_new_home),
    # A flapping radio link partitions the access link outright, so
    # frames pile up in the relay tier where only the client's
    # QOS_REPORT gap can show them to the shard; the session moves
    # mid-fault and the rung rides the frozen blob.
    "QoS-x-migration-mid-fault": (Scenario(
        shards=2, server={"qos": QosConfig()},
        clients=(client_spec(THIN, FaultPlan.flapping_80211g(
            1000 + (CHAOS_SEED or 7), start=0.3, duration=1.6, flaps=4)),),
        workload=("clip", {"duration": 4.5}),
        ops=tuple(sorted([Op(1.0, "migrate", 0, (1,))] + [
            Op(0.25 + 0.15 * k, "report", 0, (24,)) for k in range(39)],
            key=lambda op: op.t)), settle=2.0),
        ladder_engaged_and_rung_travelled),
    # -- ISSUE 23's satellite: a full target refuses the move ---------------
    "migration-refused-by-a-full-shard": (Scenario(
        shards=2, clients=(ClientSpec(),) * 4, workload=MIRRORED,
        server={"server_budget": ServerBudget(max_sessions=2)},
        ops=(Op(1.0, "migrate", 0, (1,)),)), refusal_changed_nothing),
    # -- defects the state machine found (docs/TESTING.md) -------------------
    # The QoS ladder polls on passing frames: a clip that stopped while
    # the thin viewer sat on a degraded rung left it there for ever.
    "rung-outlives-its-stream": (replace(BASES[0], ops=(
        Op(0.05, "play", 0, CLIP),
        Op(0.3, "fault", 0, (LossBurst(0.3, 1.2),)),
        Op(1.2, "stop"), Op(5.0, "quiet"))), None),
    # A 1:1 sub-view gets video cropped and re-encoded; nothing repainted
    # the rectangle when the stream ended.
    "video-under-a-wall-tile": (replace(BASES[0], ops=(
        Op(0.05, "subscribe", 1, (3, 2, 4)), Op(0.1, "play", 0, CLIP),
        Op(0.6, "stop"))), None),
    # A RESIZE's SCREEN_INIT died unacked with the journal the partition
    # overflowed; the snapshot resync painted 128x96 bands onto 64x48.
    "geometry-lost-in-a-snapshot-resync": (replace(
        BASES[2], clients=BASES[2].clients[::-1], ops=(
            Op(0.2, "attach", args=(ClientSpec(THIN, (32, 24)),)),
            Op(3.15, "play", 0, CLIP), Op(3.75, "resize", 2, (128, 96)),
            Op(3.8, "fault", 2, (Partition(3.8, 0.7),)),
            Op(4.6, "disconnect", 2))), None),
    # The driver used to learn its screen from the first onscreen
    # *draw*, so a screen that had only ever shown video could not
    # source the refresh a resize asks for.
    "resize-over-a-video-only-screen": (replace(BASES[0], ops=(
        Op(0.05, "play", 0, CLIP), Op(0.1, "resize", 1, (32, 24)))), None),
}
OPEN = {}
#: Every row runs at the state machine's QoS dynamics
#: (``tests.helpers.fast_qos``); this row's seed re-rolls under chaos.
QOS_SEED = {"QoS-x-migration-mid-fault": CHAOS_SEED or 7}


def test_a_detached_resilient_session_redials_fresh():
    # ``detach_client`` used to leave the resilience guard behind: the
    # client's redial resynced into the removed unit, which ``submit``
    # never routes to, and its screen stayed stale for ever.
    run = Scenario(workload=MIRRORED, clients=(
        ClientSpec(resilient=True),), ops=(Op(2.0, "draw", 0, (3,)),)).build()
    run.run_until(0.5)
    run.servers[0].detach_client(run.home(0)[1])
    run.viewer(0).connection.close()
    run.quiesce()
    stats = run.servers[0].resilience.stats
    assert (stats["attaches"],
            stats["resyncs_replay"] + stats["resyncs_snapshot"]) == (2, 0)
    print(run.check())


@pytest.mark.parametrize("name, scenario, holds", [
    pytest.param(name, *row, id=name, marks=[pytest.mark.xfail(
        strict=True, reason=OPEN[name])] if name in OPEN else [])
    for name, row in ROWS.items()])
def test_schedule(name, scenario, holds):
    with fast_qos(QOS_SEED.get(name, 7)):
        run = scenario.build()
        run.quiesce()
        print(run.check())
    assert holds is None or holds(run), holds.__name__
