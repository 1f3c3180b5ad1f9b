"""Command-line interface for the THINC reproduction.

Subcommands::

    python -m repro figures   [--pages N] [--frames N] [--only fig5]
    python -m repro demo      [--width W] [--height H] [--network lan|wan|pda]
    python -m repro trace     record <out.trace> | show <in.trace>
    python -m repro sites

`figures` regenerates the paper's evaluation tables; `demo` runs a
scripted desktop session and reports what crossed the wire; `trace`
records a demo session's downstream protocol bytes to a file or
summarises an existing trace; `sites` prints the Table 2 site models.
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
    from .bench import experiments

    wanted = args.only
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
    emit("fig4", lambda: experiments.fig4_web_remote(
        max(2, args.pages // 2)))
    emit("fig5", lambda: experiments.fig5_av_quality(args.frames))
    emit("fig6", lambda: experiments.fig6_av_data(args.frames))
    emit("fig7", lambda: experiments.fig7_av_remote(
        max(24, args.frames * 4 // 5)))
    if not printed:
        print(f"no figure matches {wanted!r} "
              "(use fig2..fig7)", file=sys.stderr)
        return 2
    return 0


def _build_demo(network: str, width: int, height: int, trace_path=None):
    from .core import THINCClient, THINCServer
    from .display import WindowServer
    from .display.wm import WindowManager
    from .net import (Connection, EventLoop, NETWORK_CONFIGS,
                      PacketMonitor)
    from .region import Rect

    link = NETWORK_CONFIGS[network]
    loop = EventLoop()
    monitor = PacketMonitor()
    conn = Connection(loop, link, monitor=monitor)
    server = THINCServer(loop, width, height)
    ws = WindowServer(width, height, driver=server.driver,
                      clock=loop.clock)
    server.attach_client(conn)
    client = THINCClient(loop, conn)
    recorder = None
    if trace_path is not None:
        from .protocol.trace import TraceRecorder

        recorder = TraceRecorder(trace_path, loop.clock)
        conn.down.connect(recorder.tee(client._on_data))

    wm = WindowManager(ws)
    editor = wm.create_window("editor", Rect(
        width // 8, height // 8, width // 2, height // 2))
    for n in range(8):
        loop.schedule(0.15 * n, lambda n=n: wm.draw_in_window(
            editor, lambda s, d: s.draw_text(
                d, 6, 6 + n * 10, f"line {n}: the quick brown fox",
                (10, 10, 10, 255))))
    loop.schedule(1.3, lambda: wm.move_window(editor, width // 6,
                                              height // 6))
    end = loop.run_until_idle(max_time=30)
    return loop, ws, client, monitor, recorder, end


def _cmd_demo_sharded(args) -> int:
    """The demo fanned out over a shard fabric behind a relay.

    The same scripted editor session plays on every shard's (mirrored)
    screen; two clients per shard dial the relay exactly as they would
    a single server, and one session is live-migrated mid-script.
    """
    from .cluster import ShardCoordinator
    from .cluster.smoke import SMOKE_CONFIG
    from .core.resilience import ResilientClient
    from .display import WindowServer
    from .display.wm import WindowManager
    from .net import Connection, EventLoop, NETWORK_CONFIGS
    from .region import Rect

    width, height = args.width, args.height
    loop = EventLoop()
    coord = ShardCoordinator(loop, args.shards, width, height,
                             resilience=SMOKE_CONFIG)
    screens = []
    for server in coord.shards:
        ws = WindowServer(width, height, driver=server.driver,
                          clock=loop.clock)
        wm = WindowManager(ws)
        editor = wm.create_window("editor", Rect(
            width // 8, height // 8, width // 2, height // 2))
        for n in range(8):
            loop.schedule(
                0.15 * n, lambda wm=wm, editor=editor, n=n:
                wm.draw_in_window(editor, lambda s, d: s.draw_text(
                    d, 6, 6 + n * 10,
                    f"line {n}: the quick brown fox", (10, 10, 10, 255))))
        loop.schedule(1.3, lambda wm=wm, editor=editor:
                      wm.move_window(editor, width // 6, height // 6))
        screens.append(ws)

    link = NETWORK_CONFIGS[args.network]

    def dial() -> "Connection":
        conn = Connection(loop, link)
        coord.relay.accept(conn)
        return conn

    clients = []
    for i in range(2 * args.shards):
        rc = ResilientClient(loop, dial, config=SMOKE_CONFIG, seed=i)
        rc.start()
        clients.append(rc)
    loop.run_until(2.0)
    token = clients[0].token
    moved = False
    if token and args.shards > 1:
        source = coord.route_token(token)
        coord.migrate(token, (source + 1) % args.shards)
        moved = True
    loop.run_until(14.0)

    exact = all(
        rc.client.fb is not None and rc.client.fb.same_as(
            screens[coord.route_token(rc.token)].screen.fb)
        for rc in clients)
    stats = coord.stats()
    print(f"network            : {args.network}")
    print(f"shards             : {args.shards}")
    print(f"sessions           : {stats['sessions']} "
          f"({[len(s.sessions) for s in coord.shards]} per shard)")
    print(f"live migrations    : {len(coord.migrations)}"
          + (f" (token {token})" if moved else ""))
    print(f"pixel-exact clients: {exact}")
    print(f"relay bytes up/down: {stats['relay']['bytes_up']:,} / "
          f"{stats['relay']['bytes_down']:,}")
    print(f"shared-cache hits  : {stats['shared_cache']['hits']}")
    return 0 if exact else 1


def _cmd_demo(args) -> int:
    if args.shards > 1:
        return _cmd_demo_sharded(args)
    loop, ws, client, monitor, recorder, end = _build_demo(
        args.network, args.width, args.height)
    exact = client.fb.same_as(ws.screen.fb)
    print(f"network            : {args.network}")
    print(f"session length     : {end:.2f} s simulated")
    print(f"pixel-exact client : {exact}")
    print(f"bytes on the wire  : {monitor.total_bytes():,}")
    for kind, count in sorted(client.stats["commands_by_kind"].items()):
        print(f"    {kind.upper():9s} x {count}")
    return 0 if exact else 1


def _cmd_trace(args) -> int:
    from .protocol.trace import read_trace, summarize_trace

    if args.action == "record":
        with open(args.path, "wb") as sink:
            _, ws, client, monitor, recorder, end = _build_demo(
                "lan", 320, 240, trace_path=sink)
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
    figures.add_argument("--only", help="substring filter, e.g. fig5")
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

    sites = sub.add_parser("sites", help="print the Table 2 site models")
    sites.set_defaults(func=_cmd_sites)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
