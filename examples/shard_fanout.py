#!/usr/bin/env python
"""Shard fan-out: one dial target, two servers, one live migration.

The minimal cluster deployment — a :class:`ShardCoordinator` owning two
THINC shards behind a :class:`Relay` — described as one
:class:`~repro.cluster.scenario.Scenario`: four thin clients dial the
relay with the ordinary wire protocol and never learn the fabric
exists; both shard screens play the same drawing script (mirrored
content), one session is live-migrated between shards mid-script, and
the scenario oracle then holds every client pixel-identical to its
shard's screen, live, and owned by exactly one shard.

Run:  python examples/shard_fanout.py
"""

from repro.cluster.scenario import ClientSpec, Op, Scenario


def main() -> None:
    # Two complete THINC servers (shard 0 mints odd tokens, shard 1
    # even), each preparing its own commands, behind one relay; the
    # same scripted workload on both screens keeps them mirrored, which
    # is what makes cross-shard migration seamless for the viewer.
    scenario = Scenario(
        320, 240, shards=2, clients=(ClientSpec(),) * 4,
        workload=("scripted", {"end": 0.8}),
        # Everyone has attached and the script is rolling: move the
        # first session one shard along, live.  The relay severs its
        # splice, the frozen state crosses the fabric in a
        # SESSION_TRANSFER frame, and the client's ordinary reconnect
        # logic lands it on the new shard and replays what it missed.
        ops=(Op(0.5, "migrate", 0, (1,)),), settle=7.5)
    run = scenario.build()
    run.quiesce()
    coord = run.coord

    (move,) = coord.migrations
    print(f"sessions per shard : {[len(s.sessions) for s in coord.shards]}")
    print(f"migrated token     : {move['token']} "
          f"(shard {move['source']} -> {move['target']})")
    print(f"fabric control log : "
          f"{[type(m).__name__ for m in coord.fabric_log]}")
    stats = coord.stats()
    print(f"prepare hits/misses: {stats['prepare_cache_hits']} / "
          f"{stats['prepare_cache_misses']}")
    for i, rc in enumerate(run.clients):
        print(f"client {i} (token {rc.token}) on shard {run.home(i)[0]}")
    # Pixels, liveness, budgets, ownership: the one oracle.
    print(run.check())
    print("every client is pixel-identical to its shard's screen")


if __name__ == "__main__":
    main()
