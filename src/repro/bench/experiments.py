"""The paper's evaluation, experiment by experiment.

Per figure of Section 8, its runs (memoised: the tables and the claims
of :mod:`repro.bench.claims` read the same ones) and the table the paper
plots.  54 pages / 834 frames reproduce the full workloads; fewer
truncate them (byte totals for A/V are extrapolated — playback is
steady-state — and page means are over the truncated prefix).

Index:

=========  ==========================================================
fig2       Web benchmark: average page latency (LAN/WAN/PDA)
fig3       Web benchmark: average per-page data (LAN/WAN/PDA)
fig4       THINC web latency from the Table 2 remote sites
fig5       A/V benchmark: A/V quality (LAN/WAN/PDA)
fig6       A/V benchmark: total data transferred (LAN/WAN/PDA)
fig7       THINC A/V quality + relative bandwidth from remote sites
=========  ==========================================================
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Tuple

from ..baselines import LocalPCModel
from ..net import LAN_DESKTOP, PDA_80211G, WAN_DESKTOP, LinkParams
from ..video.stream import BENCHMARK_CLIP
from ..workloads.web import make_page_set
from .reporting import format_mbytes, format_ms, format_pct, format_table
from .sites import REMOTE_SITES, site_link
from .slowmotion import AVRunResult, WebRunResult
from .testbed import (AV_PLATFORMS, WEB_PDA_PLATFORMS, WEB_PLATFORMS,
                      run_av_benchmark, run_web_benchmark)

__all__ = ["fig2_web_latency", "fig3_web_data", "fig4_web_remote",
           "fig5_av_quality", "fig6_av_data", "fig7_av_remote",
           "web_run", "av_run", "remote_web", "remote_av", "memoised",
           "PDA_VIEWPORT"]

PDA_VIEWPORT = (320, 240)

# The networks of Section 8.1, in figure order.
_WEB_CONFIGS: List[Tuple[str, LinkParams, bool, Optional[Tuple[int, int]]]] = [
    ("LAN Desktop", LAN_DESKTOP, False, None),
    ("WAN Desktop", WAN_DESKTOP, True, None),
    ("802.11g PDA", PDA_80211G, False, PDA_VIEWPORT),
]
_NETWORKS = {name: config for name, *config in _WEB_CONFIGS}

# Platforms shown per network in Figures 5/6's PDA series.
AV_PDA_PLATFORMS = ["THINC", "RDP", "ICA", "GoToMyPC"]

_runs: Dict[Tuple, object] = {}


def memoised(fn):
    """Run *fn* once per positional arguments for the life of the
    process, so every table and claim reads the same run (a test that
    breaks a mechanism on purpose swaps ``_runs`` for a fresh dict)."""
    @functools.wraps(fn)
    def cached(*args):
        key = (fn.__module__, fn.__qualname__) + args
        if key not in _runs:
            _runs[key] = fn(*args)
        return _runs[key]
    return cached


@memoised
def web_run(platform: str, network: str, page_count: int) -> WebRunResult:
    """One platform's web benchmark on one of the three networks."""
    link, wan, viewport = _NETWORKS[network]
    return run_web_benchmark(platform, link, network, page_count=page_count,
                             viewport=viewport, wan_mode=wan)


@memoised
def av_run(platform: str, network: str, max_frames: int) -> AVRunResult:
    """One platform's A/V benchmark on one of the three networks."""
    link, wan, viewport = _NETWORKS[network]
    return run_av_benchmark(platform, link, network, max_frames=max_frames,
                            viewport=viewport, wan_mode=wan)


@memoised
def local_pc_page_metrics(link: LinkParams, page_count: int):
    """Mean (latency, bytes) for the local PC over the page set."""
    model = LocalPCModel()
    pages = make_page_set(count=page_count)
    metrics = [model.page_metrics(p.content_bytes, p.render_pixels, link)
               for p in pages]
    mean_latency = sum(m[0] for m in metrics) / len(metrics)
    mean_bytes = sum(m[1] for m in metrics) / len(metrics)
    return mean_latency, mean_bytes


def _figure_rows(run, size, platforms, local_cells, cells):
    """Per network in figure order: the local PC (desktops only), then
    each platform measured there (*platforms*: desktop, PDA lists)."""
    rows = []
    for network, link, _, viewport in _WEB_CONFIGS:
        if viewport is None:
            rows.append(["local PC", network, *local_cells(link)])
        rows += [[name, network, *cells(run(name, network, size))]
                 for name in platforms[viewport is not None]]
    return rows


def fig2_web_latency(page_count: int = 8) -> str:
    return format_table(
        "Figure 2 — Web Benchmark: Average Page Latency",
        ["platform", "network", "latency", "latency+client"],
        _figure_rows(
            web_run, page_count, (WEB_PLATFORMS, WEB_PDA_PLATFORMS),
            lambda link: [format_ms(local_pc_page_metrics(
                link, page_count)[0]), "-"],
            lambda run: [format_ms(run.mean_latency),
                         format_ms(run.mean_latency_with_processing)]),
        note=f"{page_count} pages per run "
             "(paper: 54; means are stable after ~8)",
    )


def fig3_web_data(page_count: int = 8) -> str:
    return format_table(
        "Figure 3 — Web Benchmark: Average Page Data Transferred",
        ["platform", "network", "data/page"],
        _figure_rows(
            web_run, page_count, (WEB_PLATFORMS, WEB_PDA_PLATFORMS),
            lambda link: [format_mbytes(local_pc_page_metrics(
                link, page_count)[1])],
            lambda run: [format_mbytes(run.mean_page_bytes)]),
    )


@memoised
def remote_web(page_count: int) -> Dict[str, WebRunResult]:
    """Figure 4's THINC runs: ``"LAN"`` (the testbed), then site codes."""
    runs = {"LAN": web_run("THINC", "LAN Desktop", page_count)}
    for site in REMOTE_SITES:
        runs[site.code] = run_web_benchmark("THINC", site_link(site),
                                            site.code, page_count=page_count)
    return runs


def fig4_web_remote(page_count: int = 5) -> str:
    """THINC page latency from each Table 2 site."""
    runs = remote_web(page_count)
    rows = [["(testbed)", "0", format_ms(runs["LAN"].mean_latency)]]
    for site in REMOTE_SITES:
        rows.append([f"{site.code} {site.location}",
                     f"{site.rtt * 1000:.0f}",
                     format_ms(runs[site.code].mean_latency)])
    return format_table(
        "Figure 4 — Web Benchmark: THINC Page Latency from Remote Sites",
        ["site", "RTT (ms)", "latency"],
        rows,
        note="PlanetLab sites use 256 KB TCP windows; others 1 MB",
    )


def local_pc_video(link: LinkParams):
    """(A/V quality, bytes) for the local PC playing the whole clip."""
    return LocalPCModel().video_metrics(BENCHMARK_CLIP().duration, link)


def fig5_av_quality(max_frames: int = 120) -> str:
    rows = _figure_rows(
        av_run, max_frames, (AV_PLATFORMS, AV_PDA_PLATFORMS),
        lambda link: [format_pct(local_pc_video(link)[0])],
        lambda run: [format_pct(run.av_quality)])
    for row in rows:
        if row[0] in ("VNC", "GoToMyPC"):
            row[0] += " (video only)"
    return format_table(
        "Figure 5 — A/V Benchmark: A/V Quality",
        ["platform", "network", "A/V quality"],
        rows,
        note="GoToMyPC and VNC have no audio support",
    )


def fig6_av_data(max_frames: int = 120) -> str:
    duration = BENCHMARK_CLIP().duration

    def local(link):
        nbytes = local_pc_video(link)[1]
        return [format_mbytes(nbytes), f"{nbytes * 8 / duration / 1e6:.1f}"]

    return format_table(
        "Figure 6 — A/V Benchmark: Total Data Transferred",
        ["platform", "network", "total data (full clip)", "Mbps"],
        _figure_rows(av_run, max_frames, (AV_PLATFORMS, AV_PDA_PLATFORMS),
                     local,
            lambda run: [format_mbytes(run.total_bytes_full_clip),
                         f"{run.bandwidth_mbps:.1f}"]),
        note="systems below THINC's volume are dropping video data",
    )


@memoised
def remote_av(max_frames: int) -> Dict[str, AVRunResult]:
    """Figure 7's THINC runs: ``"LAN"`` (the testbed), then site codes."""
    runs = {"LAN": av_run("THINC", "LAN Desktop", max_frames)}
    for site in REMOTE_SITES:
        runs[site.code] = run_av_benchmark("THINC", site_link(site),
                                           site.code, max_frames=max_frames)
    return runs


def fig7_av_remote(max_frames: int = 96) -> str:
    """THINC A/V quality and relative bandwidth from each remote site."""
    runs = remote_av(max_frames)
    rows = [["(testbed)", format_pct(runs["LAN"].av_quality), "100%"]]
    for site in REMOTE_SITES:
        relative = site_link(site).throughput / LAN_DESKTOP.throughput
        rows.append([f"{site.code} {site.location}",
                     format_pct(runs[site.code].av_quality),
                     format_pct(min(relative, 1.0))])
    return format_table(
        "Figure 7 — A/V Benchmark: THINC Quality from Remote Sites",
        ["site", "A/V quality", "relative bandwidth"],
        rows,
        note="Korea's PlanetLab node is capped at a 256 KB TCP window",
    )
