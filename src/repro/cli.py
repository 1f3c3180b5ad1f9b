"""Command-line interface for the THINC reproduction.

Subcommands::

    python -m repro figures   [--pages N] [--frames N] [--only fig5|claims]
    python -m repro demo      [--width W] [--height H] [--network lan|wan|pda]
    python -m repro trace     record <out.trace> | show <in.trace>
    python -m repro replay    <bundle.json>
    python -m repro sites

`figures` regenerates the paper's evaluation tables (or, `--only
claims`, its table of claims); `demo` runs a scripted desktop session
and reports what crossed the wire; `trace` records a demo session's
downstream protocol bytes to a file or summarises an existing trace;
`replay` re-runs a scenario bundle (a failing example written by the
state machine, `make chaos` or `make fuzz`) through build → quiesce →
check; `sites` prints the Table 2 site models.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["main"]

#: Smallest screen the scripted demo fits on: its editor window is half
#: the screen each way and the window manager needs 24 x 22 to manage.
_DEMO_MIN_WIDTH, _DEMO_MIN_HEIGHT = 48, 44


def _cmd_figures(args) -> int:
    from .bench import claims, experiments

    scale, wanted = claims.Scale(args.pages, args.frames), args.only
    printed = False

    def emit(name: str, render) -> None:
        nonlocal printed
        if wanted and wanted not in name:
            return
        if printed:
            print()
        print(render())
        printed = True

    emit("fig2", lambda: experiments.fig2_web_latency(args.pages))
    emit("fig3", lambda: experiments.fig3_web_data(args.pages))
    emit("fig4", lambda: experiments.fig4_web_remote(scale.site_pages))
    emit("fig5", lambda: experiments.fig5_av_quality(args.frames))
    emit("fig6", lambda: experiments.fig6_av_data(args.frames))
    emit("fig7", lambda: experiments.fig7_av_remote(scale.site_frames))
    if wanted:  # the claims table only when asked for by name
        emit("claims", lambda: claims.render(scale))
    if not printed:
        print(f"no figure matches {wanted!r} "
              "(use fig2..fig7 or claims)", file=sys.stderr)
        return 2
    return 0


def _demo_run(network: str, width: int, height: int, shards: int = 0):
    """The scripted editor session as a scenario: one client on a bare
    server, or two per shard behind a relay with one live migration."""
    from .cluster.scenario import ClientSpec, Op, Scenario
    from .net import NETWORK_CONFIGS

    client = ClientSpec(NETWORK_CONFIGS[network])
    if shards > 1:
        return Scenario(width, height, shards, workload=("editor", {}),
                        clients=(client,) * (2 * shards),
                        ops=(Op(2.0, "migrate", 0, (1,)),)).build()
    return Scenario(width, height, clients=(client,), settle=30.0,
                    workload=("editor", {})).build()


def _cmd_demo(args) -> int:
    run = _demo_run(args.network, args.width, args.height, args.shards)
    end = run.quiesce()
    problems = run.violations()
    exact = not any(p.startswith("pixel") for p in problems)
    print(f"network            : {args.network}")
    if run.coord is not None:
        stats = run.coord.stats()
        print(f"shards             : {args.shards}")
        print(f"sessions           : {stats['sessions']} "
              f"({[len(s.sessions) for s in run.servers]} per shard)")
        print(f"live migrations    : {len(run.coord.migrations)}")
        print(f"pixel-exact clients: {exact}")
        print(f"relay bytes up/down: {stats['relay']['bytes_up']:,} / "
              f"{stats['relay']['bytes_down']:,}")
        print(f"shared-cache hits  : {stats['shared_cache']['hits']}")
    else:
        client = run.clients[0]
        print(f"session length     : {end:.2f} s simulated")
        print(f"pixel-exact client : {exact}")
        print(f"bytes on the wire  : {run.monitor.total_bytes():,}")
        for kind, count in sorted(client.stats["commands_by_kind"].items()):
            print(f"    {kind.upper():9s} x {count}")
    for problem in problems:
        print(f"VIOLATION {problem}", file=sys.stderr)
    return 1 if problems else 0


def _cmd_replay(args) -> int:
    from .cluster.scenario import Scenario, ScenarioFailure

    with open(args.bundle) as source:
        run = Scenario.from_json(source.read()).build()
    run.quiesce()
    try:
        print(run.check())
    except ScenarioFailure as failure:
        print(failure, file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args) -> int:
    from .protocol.trace import read_trace, summarize_trace

    if args.action == "record":
        from .protocol.trace import TraceRecorder

        run = _demo_run("lan", 320, 240)
        with open(args.path, "wb") as sink:
            recorder = TraceRecorder(sink, run.loop.clock)
            run.links[0].down.connect(
                recorder.tee(run.clients[0]._on_data))
            end = run.quiesce()
        print(f"recorded {recorder.records_written} chunks "
              f"({recorder.bytes_written} bytes) over {end:.2f} s "
              f"to {args.path}")
        return 0
    with open(args.path, "rb") as source:
        records = read_trace(source)
    summary = summarize_trace(records)
    print(f"records   : {summary['records']}")
    print(f"bytes     : {summary['bytes']:,}")
    print(f"duration  : {summary['duration']:.3f} s")
    print("messages  :")
    for name, count in sorted(summary["messages"].items()):
        print(f"    {name:20s} x {count}")
    return 0


def _cmd_sites(args) -> int:
    from .bench.reporting import format_table
    from .bench.sites import REMOTE_SITES, site_link

    rows = []
    for site in REMOTE_SITES:
        link = site_link(site)
        rows.append([
            site.code, site.location, site.distance_miles,
            "yes" if site.planetlab else "no",
            f"{site.rtt * 1000:.0f} ms",
            f"{link.tcp_window // 1024} KB",
            f"{link.throughput * 8 / 1e6:.0f} Mbps",
        ])
    print(format_table(
        "Table 2 — Remote Sites for WAN Experiments",
        ["code", "location", "miles", "PlanetLab", "RTT", "TCP window",
         "achievable"],
        rows))
    return 0


def _bounded_int(low: int, high: float = float("inf")):
    """An argparse ``type=`` accepting integers in [*low*, *high*]."""
    def parse(text: str) -> int:
        value = int(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(
                f"{value} is out of range [{low}, {high}]")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    from .protocol.limits import LIMITS
    positive = _bounded_int(1)
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures",
                             help="regenerate the paper's figures")
    figures.add_argument("--pages", type=positive, default=8)
    figures.add_argument("--frames", type=positive, default=120)
    figures.add_argument("--only", help="substring filter: fig5, claims")
    figures.set_defaults(func=_cmd_figures)

    demo = sub.add_parser("demo", help="run a scripted desktop session")
    demo.add_argument("--width", default=640, type=_bounded_int(
        _DEMO_MIN_WIDTH, LIMITS.max_viewport_dim))
    demo.add_argument("--height", default=480, type=_bounded_int(
        _DEMO_MIN_HEIGHT, LIMITS.max_viewport_dim))
    demo.add_argument("--network", choices=("lan", "wan", "pda"),
                      default="lan")
    demo.add_argument("--shards", type=positive, default=1,
                      help="run the session on a shard fabric behind a "
                           "relay (N>1), with one live migration")
    demo.set_defaults(func=_cmd_demo)

    trace = sub.add_parser("trace", help="record or inspect a trace")
    trace.add_argument("action", choices=("record", "show"))
    trace.add_argument("path")
    trace.set_defaults(func=_cmd_trace)

    replay = sub.add_parser(
        "replay", help="re-run a scenario bundle through the oracle")
    replay.add_argument("bundle", help="a Scenario.to_json() file")
    replay.set_defaults(func=_cmd_replay)

    sites = sub.add_parser("sites", help="print the Table 2 site models")
    sites.set_defaults(func=_cmd_sites)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
