"""The paper's Section 8 results as one table of claims.

Each row gives its figure or section, the paper's statement, the
quantity measured — from the memoised runs of :mod:`.experiments` and
:mod:`.ablations`, so rows over one run share it — the band enforced on
each value, and, where the reproduction differs from the paper today,
why (``departs``).  ``tier1`` rows cost about a second and run in
tier-1; ``make claims`` runs them all, plus seeded mechanism breaks and
the check that EXPERIMENTS.md commits what :func:`render` prints.
"""

from __future__ import annotations

import operator
import statistics
from dataclasses import dataclass
from typing import Callable, Tuple

from ..net import LAN_DESKTOP
from ..protocol import wire
from ..protocol.commands import BitmapCommand
from . import ablations as abl
from .experiments import (av_run, local_pc_page_metrics, local_pc_video,
                          remote_av, remote_web, web_run)
from .reporting import format_mbytes, format_ms, format_pct
from .sites import REMOTE_SITES

__all__ = ["Claim", "Scale", "CLAIMS", "render"]

LAN, WAN, PDA = "LAN Desktop", "WAN Desktop", "802.11g PDA"
OTHERS = ("X", "NX", "VNC", "SunRay", "RDP", "ICA", "GoToMyPC")
SCRAPERS = ("X", "VNC", "SunRay", "RDP", "ICA")  # NX and GoToMyPC aside
SITES = {site.code: site for site in REMOTE_SITES}
SHARED = (2, 4, 8)  # clients sharing one session, each against one
_OPS = {"<": operator.lt, "≤": operator.le, "=": operator.eq,
        "≥": operator.ge, ">": operator.gt}
_FORMAT = {"x": lambda v: f"{v:.3g}×", "s": format_ms, "B": format_mbytes,
           "%": format_pct, "Mbps": lambda v: f"{v:.1f} Mbit/s",
           "n": lambda v: f"{v:g}"}


@dataclass(frozen=True)
class Scale:
    """The sizes read: ``figures --pages / --frames``, and for sites."""

    pages: int = 8
    frames: int = 120

    @property
    def site_pages(self) -> int:
        return max(2, self.pages // 2)

    @property
    def site_frames(self) -> int:
        return max(24, self.frames * 4 // 5)


@dataclass(frozen=True)
class Claim:
    """*measure* reads one value or a tuple (in *quantity*'s order);
    *band* is ``(op, bound, ...)``, every pair held by every value."""

    id: str
    where: str
    paper: str
    quantity: str
    measure: Callable[[Scale], object]
    band: Tuple
    unit: str = "x"
    departs: str = ""
    tier1: bool = False

    def values(self, scale: Scale) -> Tuple[float, ...]:
        value = self.measure(scale)
        return value if isinstance(value, tuple) else (value,)

    def holds(self, values: Tuple[float, ...]) -> bool:
        return all(_OPS[op](value, bound) for value in values
                   for op, bound in zip(self.band[::2], self.band[1::2]))

    def show(self, values: Tuple[float, ...]) -> str:
        return " / ".join(map(_FORMAT[self.unit], values))

    def band_text(self) -> str:
        return ", ".join(f"{op} {self.show((bound,))}" for op, bound
                         in zip(self.band[::2], self.band[1::2]))


# -- what the rows read ----------------------------------------------------

def lat(s, name, net):
    return web_run(name, net, s.pages).mean_latency


def data(s, name, net):
    return web_run(name, net, s.pages).mean_page_bytes


def av(s, name, net):
    return av_run(name, net, s.frames)


def q(s, name, net):
    return av(s, name, net).av_quality


def clip(s, name, net):
    return av(s, name, net).total_bytes_full_clip


def vs_least(s, of, name, net, others):
    """*name*'s value of *of* ÷ the least of *others*'."""
    return of(s, name, net) / min(of(s, other, net) for other in others)


def slowdown(s, name):
    return lat(s, name, WAN) / lat(s, name, LAN)


def site_lat(s, code):
    return remote_web(s.site_pages)[code].mean_latency


def local_pc(s):
    """(LAN page latency, page bytes, clip quality, clip bytes)."""
    return local_pc_page_metrics(LAN_DESKTOP, s.pages) \
        + local_pc_video(LAN_DESKTOP)


def pages(s):
    """(mixed pages VNC or Sun Ray loads faster than THINC, THINC's
    worst lead over them on an image page ÷ its mean mixed-page lead,
    fewer of mixed / image pages)."""
    heavy, runs = abl.page_breakdown(s.pages)
    rivals = [min(pair) for pair in zip(runs["VNC"], runs["SunRay"])]
    leads = [rival / thinc for rival, thinc in zip(rivals, runs["THINC"])]
    mixed = [lead for lead, image in zip(leads, heavy) if not image]
    return (sum(lead < 1 for lead in mixed),
            max(lead for lead, image in zip(leads, heavy) if image)
            / (sum(mixed) / len(mixed)), min(sum(heavy), len(mixed)))


def shared(key, n):
    """*key* of one session shared by *n* LAN clients ÷ by one."""
    return abl.shared_session(n)[key] / abl.shared_session(1)[key]


def ratio(runs, attr, on, off):
    return getattr(runs[on], attr) / getattr(runs[off], attr)


# -- the table -------------------------------------------------------------

CLAIMS: Tuple[Claim, ...] = (
    Claim("fig2.thinc-fastest", "Fig 2", "THINC is the fastest everywhere",
          "THINC ÷ fastest other, LAN / WAN / PDA", lambda s: (
              vs_least(s, lat, "THINC", LAN, OTHERS),
              vs_least(s, lat, "THINC", WAN, OTHERS), vs_least(
                  s, lat, "THINC", PDA, ("VNC", "RDP", "ICA", "GoToMyPC"))),
          ("<", 1)),
    Claim("fig2.thinc-wan-slower", "Fig 2", "WAN pages take longer than LAN",
          "THINC WAN ÷ LAN latency", lambda s: slowdown(s, "THINC"),
          (">", 1), tier1=True),
    Claim("fig2.x-slowdown", "Fig 2", "X slows ≈ 2.5× from LAN to WAN",
          "X WAN ÷ LAN latency", lambda s: slowdown(s, "X"), (">", 2),
          departs="the synchronous round-trip model (one per 12 drawing "
                  "commands) is pessimistic for this page mix"),
    Claim("fig2.thinc-slowdown-below-x", "Fig 2", "THINC degrades less",
          "THINC ÷ X slowdown",
          lambda s: slowdown(s, "THINC") / slowdown(s, "X"), ("<", 1)),
    Claim("fig2.gotomypc-seconds", "Fig 2", "GoToMyPC takes ≈ 3 s a page",
          "GoToMyPC WAN latency", lambda s: lat(s, "GoToMyPC", WAN),
          (">", 1), "s"),
    Claim("fig2.beats-local-pc", "Fig 2", "THINC beats the slow local PC",
          "THINC ÷ local PC LAN latency",
          lambda s: lat(s, "THINC", LAN) / local_pc(s)[0], ("<", 1),
          tier1=True),
    Claim("fig3.local-pc-least", "Fig 3", "the local PC sends less",
          "local PC ÷ THINC LAN data",
          lambda s: local_pc(s)[1] / data(s, "THINC", LAN), ("<", 1),
          tier1=True),
    Claim("fig3.thinc-least-lan", "Fig 3", "on the LAN only NX (and 8-bit "
          "GoToMyPC) send less than THINC", "THINC ÷ least of X, VNC, Sun "
          "Ray, RDP, ICA; NX ÷ THINC (LAN data)",
          lambda s: (vs_least(s, data, "THINC", LAN, SCRAPERS),
                     data(s, "NX", LAN) / data(s, "THINC", LAN)), ("<", 1)),
    Claim("fig3.vnc-vs-thinc", "Fig 3", "VNC sends ≈ 2× THINC's data",
          "VNC ÷ THINC LAN data",
          lambda s: data(s, "VNC", LAN) / data(s, "THINC", LAN), (">", 1.4),
          departs="hextile compresses our era-style pages worse than the "
                  "paper's; VNC's WAN profile (DEFLATE) lands near 1.5×"),
    Claim("fig3.gotomypc-least", "Fig 3", "GoToMyPC sends the least",
          "GoToMyPC ÷ least other WAN data", lambda s: vs_least(
              s, data, "GoToMyPC", WAN, ("THINC",) + OTHERS[:-1]), ("<", 1)),
    Claim("fig3.adaptive-shrink", "Fig 3", "VNC, Sun Ray adapt to the WAN",
          "VNC / Sun Ray WAN ÷ LAN data", lambda s: tuple(
              data(s, n, WAN) / data(s, n, LAN) for n in ("VNC", "SunRay")),
          ("<", 0.6)),
    Claim("fig3.thinc-pda-resize", "Fig 3", "resize cuts THINC's PDA data "
          "> 2×", "THINC PDA ÷ LAN data",
          lambda s: data(s, "THINC", PDA) / data(s, "THINC", LAN),
          ("<", 0.5)),
    Claim("fig3.ica-pda", "Fig 3", "client resize saves ICA nothing",
          "ICA PDA ÷ LAN data",
          lambda s: data(s, "ICA", PDA) / data(s, "ICA", LAN), (">", 0.9)),
    Claim("fig3.vnc-pda", "Fig 3", "VNC saves little on the PDA",
          "VNC PDA ÷ LAN data",
          lambda s: data(s, "VNC", PDA) / data(s, "VNC", LAN), (">", 0.35)),
    Claim("fig3.thinc-pda-third", "Fig 3", "≈ ⅓ of 24-bit peers' PDA data",
          "THINC ÷ least of VNC, RDP, ICA PDA data", lambda s:
          vs_least(s, data, "THINC", PDA, ("VNC", "RDP", "ICA")), ("<", 0.4)),
    Claim("fig4.sub-second", "Fig 4", "sub-second everywhere but Korea",
          "slowest of the testbed and ten sites", lambda s: max(
              site_lat(s, c) for c in ("LAN",) + tuple(SITES) if c != "KR"),
          ("<", 1), "s"),
    Claim("fig4.korea", "Fig 4", "Korea exceeds 1 s", "Korea latency",
          lambda s: site_lat(s, "KR"), ("<", 1), "s",
          departs="the paper's real path also suffered congestion our clean "
                  "model omits; the window limit is reproduced in Fig 7"),
    Claim("fig4.korea-slowest", "Fig 4", "Korea is the slowest site",
          "Korea ÷ slowest other site", lambda s: site_lat(s, "KR") / max(
              site_lat(s, c) for c in SITES if c != "KR"), ("≥", 1)),
    Claim("fig4.fi-rtt", "Fig 4", "Finland's RTT is ≫ 100× the LAN's",
          "Finland ÷ LAN RTT", lambda s: SITES["FI"].rtt / LAN_DESKTOP.rtt,
          (">", 100), tier1=True),
    Claim("fig4.fi-one-round-trip", "Fig 4", "latency grows far slower "
          "than RTT", "(Finland − testbed latency) ÷ Finland RTT",
          lambda s: (site_lat(s, "FI") - site_lat(s, "LAN"))
          / SITES["FI"].rtt, ("<", 2)),
    Claim("fig5.thinc-100", "Fig 5", "THINC plays at 100 % everywhere",
          "THINC LAN / WAN / PDA quality", lambda s: tuple(
              q(s, "THINC", n) for n in (LAN, WAN, PDA)), (">", 0.99), "%"),
    Claim("fig5.thinc-lan-frames", "Fig 5", "… every frame on the LAN",
          "THINC LAN frames sent − received", lambda s: av(
              s, "THINC", LAN).frames_sent - av(s, "THINC", LAN)
          .frames_received, ("=", 0), "n", tier1=True),
    Claim("fig5.thinc-lan-audio", "Fig 5", "… with its audio",
          "THINC LAN audio quality",
          lambda s: av(s, "THINC", LAN).audio_quality, (">", 0.9), "%",
          tier1=True),
    Claim("fig5.others-below-60", "Fig 5", "the others play ≤ ≈ 35 %",
          "best other, LAN or WAN", lambda s: max(q(s, o, n) for o in OTHERS
                                                  for n in (LAN, WAN)),
          ("<", 0.6), "%"),
    Claim("fig5.nx-lan", "Fig 5", "NX plays ≈ 12 % on the LAN",
          "NX LAN quality", lambda s: q(s, "NX", LAN), ("<", 0.2), "%"),
    Claim("fig5.gotomypc-wan", "Fig 5", "GoToMyPC plays < 2 % on the WAN",
          "GoToMyPC WAN quality", lambda s: q(s, "GoToMyPC", WAN),
          ("<", 0.05), "%"),
    Claim("fig5.worst", "Fig 5", "NX is worst on the LAN, GoToMyPC on the "
          "WAN", "NX ÷ worst of X, VNC, Sun Ray, RDP, ICA (LAN); GoToMyPC ÷ "
          "worst other (WAN)", lambda s: (
              vs_least(s, q, "NX", LAN, SCRAPERS),
              vs_least(s, q, "GoToMyPC", WAN, OTHERS[:-1])), ("≤", 1)),
    Claim("fig5.vnc-halves", "Fig 5", "VNC's client pull halves it on the "
          "WAN", "VNC WAN ÷ LAN quality",
          lambda s: q(s, "VNC", WAN) / q(s, "VNC", LAN), ("<", 0.65)),
    Claim("fig5.ica-pda", "Fig 5", "ICA's client resize: ≈ 6 % on the PDA",
          "ICA PDA quality", lambda s: q(s, "ICA", PDA), ("<", 0.1), "%"),
    Claim("fig5.ica-pda-collapse", "Fig 5", "… from its desktop quality",
          "ICA PDA ÷ LAN quality",
          lambda s: q(s, "ICA", PDA) / q(s, "ICA", LAN), ("<", 0.5)),
    Claim("fig5.thinc-vs-nx", "Fig 5", "THINC up to 8× better on the LAN",
          "THINC ÷ NX LAN quality",
          lambda s: q(s, "THINC", LAN) / q(s, "NX", LAN), (">", 6)),
    Claim("fig5.thinc-vs-gotomypc", "Fig 5", "… up to 140× on the WAN",
          "THINC ÷ GoToMyPC WAN quality",
          lambda s: q(s, "THINC", WAN) / q(s, "GoToMyPC", WAN), (">", 20)),
    Claim("fig5.av-sync", "Fig 5", "THINC's A/V stays synchronized",
          "THINC LAN / WAN A/V skew", lambda s: tuple(
              float("inf") if av(s, "THINC", n).av_sync_skew_s is None
              else av(s, "THINC", n).av_sync_skew_s for n in (LAN, WAN)),
          ("<", 0.05), "s"),
    Claim("fig6.local-pc", "Fig 6", "the local PC plays perfectly",
          "local PC quality", lambda s: local_pc(s)[2], ("=", 1), "%",
          tier1=True),
    Claim("fig6.local-pc-bytes", "Fig 6", "… from < 6 MB",
          "local PC clip bytes", lambda s: local_pc(s)[3], ("<", 6e6), "B",
          tier1=True),
    Claim("fig6.thinc-117mb", "Fig 6", "THINC's video costs ≈ 117 MB",
          "THINC LAN / WAN clip bytes", lambda s: (
              clip(s, "THINC", LAN), clip(s, "THINC", WAN)),
          (">", 90e6, "<", 140e6), "B"),
    Claim("fig6.thinc-24mbps", "Fig 6", "≈ 24 Mbit/s on the desktop",
          "THINC LAN / WAN bandwidth", lambda s: tuple(
              av(s, "THINC", n).bandwidth_mbps for n in (LAN, WAN)),
          (">", 20, "<", 30), "Mbps"),
    Claim("fig6.below-thinc-drops", "Fig 6", "sending less = dropping "
          "video", "LAN systems below THINC's bytes that neither drop nor "
          "stretch", lambda s: sum(
              clip(s, n, LAN) < clip(s, "THINC", LAN)
              and r.frames_received >= r.frames_sent
              and r.actual_duration <= 1.5 * r.ideal_duration
              for n, r in ((n, av(s, n, LAN)) for n in OTHERS)), ("=", 0),
          "n"),
    Claim("fig6.gotomypc-least", "Fig 6", "GoToMyPC sends the least",
          "GoToMyPC ÷ least other WAN clip bytes", lambda s: vs_least(
              s, clip, "GoToMyPC", WAN, ("THINC",) + OTHERS[:-1]), ("≤", 1)),
    Claim("fig6.thinc-pda", "Fig 6", "resize cuts THINC's PDA video to "
          "≈ 3.5 Mbit/s", "THINC PDA bandwidth",
          lambda s: av(s, "THINC", PDA).bandwidth_mbps, ("<", 6), "Mbps"),
    Claim("fig6.thinc-pda-below-rdp", "Fig 6", "… far below RDP's",
          "THINC ÷ RDP PDA bandwidth", lambda s: av(s, "THINC", PDA)
          .bandwidth_mbps / av(s, "RDP", PDA).bandwidth_mbps, ("<", 1)),
    Claim("fig7.korea", "Fig 7", "Korea's 256 KB window starves the video",
          "Korea quality", lambda s: remote_av(s.site_frames)["KR"]
          .av_quality, ("<", 0.7), "%"),
    Claim("fig7.other-sites", "Fig 7", "100 % at every other site",
          "worst other site", lambda s: min(
              run.av_quality for code, run in remote_av(s.site_frames).items()
              if code not in ("LAN", "KR")), (">", 0.95), "%"),
    Claim("fig7.korea-1mb-window", "Fig 7", "with a 1 MB window Korea "
          "plays", "Korea quality, 1 MB window",
          lambda s: abl.korea_window(s.site_frames).av_quality, (">", 0.95),
          "%"),
    Claim("ablation.offscreen-bytes", "§4.1", "offscreen awareness keeps "
          "drawing semantics", "THINC data, awareness on ÷ off",
          lambda s: ratio(abl.offscreen(s.pages), "mean_page_bytes", 0, 1),
          ("<", 1)),
    Claim("ablation.offscreen-latency", "§4.1", "without it every flip is a "
          "full-screen compression job", "THINC latency, on ÷ off",
          lambda s: ratio(abl.offscreen(s.pages), "mean_latency", 0, 1),
          ("<", 0.5)),
    Claim("ablation.compression-bytes", "§7", "RAW compression saves bytes",
          "THINC data, on ÷ off, LAN / 8 Mbit/s", lambda s: tuple(
              ratio(abl.compression(s.pages), "mean_page_bytes",
                    (link, True), (link, False)) for link in ("LAN", "DSL")),
          ("<", 0.7)),
    Claim("ablation.compression-latency", "§7", "… and latency on a slow "
          "link", "THINC 8 Mbit/s latency, on ÷ off",
          lambda s: ratio(abl.compression(s.pages), "mean_latency",
                          ("DSL", True), ("DSL", False)), ("<", 1)),
    Claim("ablation.srsf-echo", "§5", "SRSF puts echoes ahead of bulk",
          "echo latency SRSF ÷ FIFO, mean / median", lambda s: tuple(
              f(abl.scheduler()[0].latencies)
              / f(abl.scheduler()[1].latencies)
              for f in (statistics.mean, statistics.median)), ("<", 1)),
    Claim("ablation.srsf-echoes", "§5", "(both deliver the echoes)",
          "echoes of 15 keys, SRSF / FIFO", lambda s: tuple(
              len(run.latencies) for run in abl.scheduler()), ("≥", 10), "n"),
    Claim("ablation.image-chunks-aggregated", "§4", "scan-line chunks "
          "aggregate before they ship", "RAWs ÷ scan-line chunks of the "
          "bulk images, typing run", lambda s:
          abl.scheduler()[0].raws / abl.scheduler()[0].chunks, ("<", 1)),
    Claim("ablation.push-vs-pull", "§5", "pull is one burst per round trip",
          "push ÷ pull video quality, 200 ms RTT", lambda s:
          abl.scraped_video(False) / abl.scraped_video(True), (">", 3)),
    Claim("ablation.push", "§5", "push keeps most frames", "push quality",
          lambda s: abl.scraped_video(False), (">", 0.6), "%"),
    Claim("ablation.pull", "§5", "pull collapses", "pull quality",
          lambda s: abl.scraped_video(True), ("<", 0.4), "%"),
    Claim("ablation.resize-bandwidth", "§6", "server resize cuts bandwidth "
          "> 2×", "THINC PDA, server ÷ client resize: web data / video "
          "bandwidth", lambda s: (
              ratio(abl.resize(s.pages), "mean_page_bytes", "server_web",
                    "client_web"),
              ratio(abl.resize(s.pages), "bandwidth_mbps", "server_av",
                    "client_av")), ("<", 0.5)),
    Claim("ablation.resize-latency", "§6", "… without costing latency",
          "server ÷ client resize latency (+ handheld scaling)",
          lambda s: abl.resize(s.pages)["server_web"].mean_latency
          / abl.resize(s.pages)["client_latency"], ("<", 1)),
    Claim("ablation.wireless-clean", "§8.1", "ideal 11g, clean 11b: 100 %",
          "THINC PDA quality, 802.11g / 802.11b", lambda s: tuple(
              abl.wireless()[k].av_quality for k in ("11g", 0.0)),
          (">", 0.99), "%"),
    Claim("ablation.wireless-1pct", "§8.1", "light loss is absorbed",
          "802.11b at 1 % loss", lambda s: abl.wireless()[0.01].av_quality,
          (">", 0.9), "%"),
    Claim("ablation.wireless-8pct", "§8.1", "heavy loss degrades",
          "802.11b at 8 % loss", lambda s: abl.wireless()[0.08].av_quality,
          ("<", 0.9), "%"),
    Claim("ablation.wireless-monotone", "§8.1", "quality never rises with "
          "loss", "largest rise, 0 → 1 → 3 → 8 % loss", lambda s: max(
              abl.wireless()[b].av_quality - abl.wireless()[a].av_quality
              for a, b in zip(abl.LOSS_RATES, abl.LOSS_RATES[1:])),
          ("≤", 0), "%"),
    Claim("side.audio-only", "§8.3", "audio alone plays perfectly",
          "worst audio-only quality, six audio platforms", lambda s: min(
              map(abl.audio_only, ("THINC", "X", "NX", "SunRay", "RDP",
                                   "ICA"))), (">", 0.95), "%"),
    Claim("side.nx-combined", "§8.3", "NX collapses only with video",
          "NX A/V quality (96 frames)",
          lambda s: av_run("NX", LAN, abl.FRAMES).av_quality, ("<", 0.3),
          "%"),
    Claim("side.thinc-combined", "§8.3", "THINC stays perfect",
          "THINC A/V quality (96 frames)",
          lambda s: av_run("THINC", LAN, abl.FRAMES).av_quality,
          (">", 0.99), "%"),
    Claim("side.mixed-pages", "§8.3", "THINC wins every mixed page …",
          "mixed pages VNC or Sun Ray loads faster",
          lambda s: pages(s)[0], ("≤", 1), "n"),
    Claim("side.image-pages", "§8.3", "… but not the large-image ones",
          "THINC's image-page lead ÷ mixed-page lead",
          lambda s: pages(s)[1], ("<", 1)),
    Claim("side.page-kinds", "§8.3", "(the page set has both kinds)",
          "fewer of mixed / image pages", lambda s: pages(s)[2], ("≥", 1),
          "n"),
    Claim("side.scroll-vs-scrapers", "Table 1", "COPY scrolls without "
          "resending pixels", "VNC / Sun Ray ÷ THINC bytes, build log",
          lambda s: tuple(abl.scroll_bytes(n) / abl.scroll_bytes("THINC")
                          for n in ("VNC", "SunRay")), (">", 5)),
    Claim("side.scroll-bytes", "Table 1", "… under one text region",
          "THINC bytes, build log", lambda s: abl.scroll_bytes("THINC"),
          ("<", abl.SCROLL_REGION.area * 4), "B"),
    Claim("side.scroll-text-aggregated", "§4", "small updates aggregate "
          "before they ship", "THINC bytes per glyph, build log",
          lambda s: abl.scroll_bytes("THINC") / sum(map(len, abl.BUILD_LOG)),
          ("<", wire.FRAME_OVERHEAD + BitmapCommand.schema.struct.size), "n"),
    Claim("side.sharing-bytes", "§1", "N clients get N full streams",
          "distance of bytes ÷ (N × one client's) from 1, N = 2 / 4 / 8",
          lambda s: tuple(abs(shared("bytes", n) / n - 1) for n in SHARED),
          ("≤", 0.05), tier1=True),
    Claim("side.sharing-flat", "§1", "… at flat page time and CPU",
          "page time, CPU ÷ one client's, N = 2 / 4 / 8", lambda s: tuple(
              shared(key, n) for key in ("latency", "cpu_time")
              for n in SHARED), ("<", 2), tier1=True),
    Claim("side.sharing-prepared-once", "§1", "one prepare per command",
          "misses, 8 clients − 1; hits − 7 × misses", lambda s: (
              abl.shared_session(8)["prepare_cache_misses"]
              - abl.shared_session(1)["prepare_cache_misses"],
              abl.shared_session(8)["prepare_cache_hits"]
              - 7 * abl.shared_session(8)["prepare_cache_misses"]),
          ("=", 0), "n", tier1=True),
)


def render(scale: Scale = Scale()) -> str:
    """The claims as the markdown block EXPERIMENTS.md commits between
    its claims markers: one row per claim, then the departures."""
    lines = [f"Read at {scale.pages} pages and {scale.frames} frames "
             f"(remote sites: {scale.site_pages} pages, {scale.site_frames}"
             " frames); ✓ = every value inside the band.", "",
             "| claim | where | paper | measured | value | band |",
             "|---|---|---|---|---|---|"]
    for claim in CLAIMS:
        values = claim.values(scale)
        lines.append(
            f"| `{claim.id}`{' †' if claim.departs else ''} | {claim.where} "
            f"| {claim.paper} | {claim.quantity} | {claim.show(values)} | "
            f"{claim.band_text()} {'✓' if claim.holds(values) else '✗'} |")
    return "\n".join(lines + ["", "† departs from the paper; the band "
                              "holds what the reproduction measures:", ""]
                     + [f"- `{c.id}`: {c.departs}." for c in CLAIMS
                        if c.departs])
