"""End-to-end fabric smoke: shards, relay, live migration, fidelity.

One :class:`~repro.cluster.scenario.Scenario`: N shards behind a relay,
M resilient clients dialling it as they would a single server, the same
scripted workload on every shard's display, K live migrations fired
mid-workload, then the scenario oracle — every client pixel-identical to
its owning shard's screen, live, and owned by exactly one shard.  The CI
``cluster-smoke`` job (exit 0: every invariant held)::

    PYTHONPATH=src THINC_SANITIZE=1 python -m repro.cluster.smoke \
        --shards 2 --sessions 8 --migrations 1
"""

from __future__ import annotations

import argparse
import sys

from .scenario import ClientSpec, Op, Scenario

__all__ = ["main"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.cluster.smoke",
        description="End-to-end shard-fabric smoke test")
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--sessions", type=int, default=8)
    parser.add_argument("--migrations", type=int, default=1)
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    # Migrations round-robin over the clients at t=1.0, once everyone
    # has attached and the workload is rolling.
    run = Scenario(
        shards=args.shards, clients=(ClientSpec(),) * args.sessions,
        workload=("scripted", {"end": 1.5}), settle=9.0,
        ops=tuple(Op(1.0, "migrate", i % args.sessions, (1,)) for i in range(
            args.migrations if args.shards > 1 else 0))).build()
    run.quiesce()
    verdict = run.check()
    moved = [(m["token"], m["source"], m["target"])
             for m in run.coord.migrations]
    if len(moved) != len(run.scenario.ops):
        raise RuntimeError(f"only {moved} of {run.scenario.ops} landed")
    if not args.quiet:
        stats = run.coord.stats()
        print(f"cluster-smoke: {verdict}; {len(moved)} migration(s) {moved}")
        print(f"  sessions per shard: "
              f"{[len(s.sessions) for s in run.coord.shards]}")
        print(f"  relay: {stats['relay']}")
        print(f"  prepare cache hits/misses: "
              f"{stats['prepare_cache_hits']} / "
              f"{stats['prepare_cache_misses']}")
        print(f"  transfer bytes: {stats['transfer_bytes']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
