"""The live-rig fuzz harness.

One fuzz run is one :class:`~repro.cluster.scenario.Scenario` — a real
server under tight budgets, an *honest* client running the scripted
workload — built twice: as is (the unfuzzed twin), and with seed-driven
mutated frames fed up a hostile co-resident connection for the whole
run.  When the hostile session gets itself quarantined (by design it
quickly will) the run re-dials, exercising admission control and the
typed denial path too.

The contract is the scenario oracle's (docs/TESTING.md), read three
ways in the report: **liveness** — no exception escapes the event loop
and the honest session ends attached with nothing pending; **isolation**
— it ends pixel-identical to the server screen *and* to the twin
(hostile bytes may not move an honest co-resident session by a single
pixel); **bounded memory** — every session's queue, audio / control
backlog and parser residue within the governor's budget, the session
table within the admission cap.

Any violating input is written to the crash corpus (see
:mod:`repro.fuzz.corpus`) where the test suite replays it forever, with
the whole run beside it as a bundle for ``python -m repro replay``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..cluster.scenario import Op, Run, Scenario
from ..core.governor import Budget, ServerBudget
from . import corpus as corpus_mod
from .mutator import Mutator

__all__ = ["FuzzConfig", "FuzzReport", "run_fuzz", "replay_corpus"]


#: Server settings of every fuzz rig: budgets deliberately tight, so a
#: run exercises the whole response ladder and not just the decode layer.
_SERVER = {
    "budget": Budget(
        degrade_queue_bytes=256 << 10, max_queue_bytes=1 << 20,
        evict_queue_bytes=2 << 20, max_audio_backlog_bytes=64 << 10,
        max_control_backlog_bytes=256 << 10, max_journal_bytes=1 << 20,
        uplink_msgs_per_sec=2000.0, uplink_burst=4000),
    "server_budget": ServerBudget(max_sessions=8, retry_after=0.25)}

#: A fresh hostile connection every this many cases: a single
#: length-lying frame legally makes the parser wait for bytes that never
#: come, and a stream fuzzer that never redials would hide every later
#: case inside that phantom payload.
_REDIAL_EVERY = 8


@dataclass
class FuzzConfig:
    """One fuzz scenario; everything derives from ``seed``."""

    seed: int = 1
    cases: int = 500          # mutated inputs fed to the server
    width: int = 96
    height: int = 64
    duration: float = 2.0     # seconds of simulated scenario time
    crash_dir: Optional[str] = None


@dataclass
class FuzzReport:
    """Outcome of one fuzz run; ``ok`` is the headline verdict."""

    seed: int = 0
    cases: int = 0
    new_signatures: int = 0
    quarantined: int = 0
    evicted: int = 0
    wire_errors: int = 0
    uplink_throttled: int = 0
    admission_denied: int = 0
    redials: int = 0
    end_time: float = 0.0
    honest_identical: bool = False
    twin_identical: bool = False
    budget_ok: bool = False
    failures: List[str] = field(default_factory=list)
    crash_files: List[str] = field(default_factory=list)
    mutation_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = "OK" if self.ok else "FAIL"
        line = (f"seed {self.seed}: {verdict} — {self.cases} cases, "
                f"{self.new_signatures} signatures, "
                f"{self.wire_errors} wire errors, "
                f"{self.quarantined} quarantines, "
                f"{self.admission_denied} admissions denied, "
                f"honest pixel-identical={self.honest_identical}, "
                f"twin-identical={self.twin_identical}, "
                f"budget-compliant={self.budget_ok}")
        for failure in self.failures:
            line += f"\n  FAILURE: {failure}"
        return line


def _scenario(config: FuzzConfig, ops=()) -> Scenario:
    """The fuzz rig as a scenario: one honest LAN client running the
    scripted workload under the tight budget, *ops* the hostile
    connection's frames."""
    return Scenario(config.width, config.height, ops=tuple(ops),
                    server=_SERVER, settle=30.0,
                    workload=("scripted", {"end": config.duration}))


def _judge(run: Run, report: FuzzReport, twin: Optional[Run] = None,
           crash_dir: Optional[str] = None) -> None:
    """Play *run* out and fill *report* from the scenario oracle; a
    failing run leaves its replay bundle (and, on a crash, the last
    frame) under *crash_dir*."""
    try:
        report.end_time = run.quiesce()
        violations = run.violations(twin)
    except Exception as exc:  # noqa: BLE001 — the whole point: catch it all
        violations = [f"crash: exception escaped the event loop: {exc!r}"]
        if crash_dir is not None and run.applied:
            report.crash_files.append(corpus_mod.save_crash(
                crash_dir, report.seed, len(run.applied),
                run.applied[-1].args[0]))
    report.failures += violations
    clauses = {text.split(":")[0] for text in violations}
    report.honest_identical = not clauses & {"crash", "pixel"}
    report.twin_identical = (twin is not None
                             and not clauses & {"crash", "pixel", "twin"})
    report.budget_ok = not clauses & {"crash", "budget"}
    if violations and crash_dir is not None:
        path = os.path.join(crash_dir, f"fuzz-s{report.seed}.scenario.json")
        with open(path, "w") as sink:
            sink.write(run.script().to_json())
        report.crash_files.append(path)
        print(f"replay bundle written to {path}")


def run_fuzz(config: FuzzConfig) -> FuzzReport:
    """Execute one fuzz scenario; never raises — all violations are
    recorded in the report (and the crash corpus)."""
    report = FuzzReport(seed=config.seed, cases=config.cases)
    mutator = Mutator(config.seed, corpus_mod.seed_corpus(
        config.width, config.height))
    interval = config.duration / max(config.cases, 1)
    ops, t = [], 0.0
    for index in range(config.cases):
        ops.append(Op(t, "hostile", args=(
            mutator.next_case(), index % _REDIAL_EVERY == 0)))
        t += interval
    twin = _scenario(config).build()
    twin.quiesce()
    run = _scenario(config, ops).build()
    _judge(run, report, twin, config.crash_dir)

    gstats = run.servers[0].governor.stats
    report.new_signatures = mutator.stats["new_signatures"]
    report.mutation_stats = dict(mutator.stats)
    report.quarantined = gstats["quarantined"]
    report.evicted = gstats["evicted"]
    report.wire_errors = gstats["wire_errors"]
    report.uplink_throttled = gstats["uplink_throttled"]
    report.admission_denied = (run.hostile["denied"]
                               + gstats["admission_denied"])
    report.redials = run.hostile["redials"]
    return report


def replay_corpus(path: str) -> List[Tuple[str, FuzzReport]]:
    """Replay every crash-corpus input as a tiny scenario of its own;
    returns (filename, report) pairs.  An empty corpus replays clean."""
    config = FuzzConfig(cases=1, duration=0.5)
    out = []
    for index, data in enumerate(corpus_mod.load_crash_corpus(path)):
        report = FuzzReport(seed=config.seed, cases=1)
        _judge(_scenario(config, [Op(0.0, "hostile", args=(data, True))])
               .build(), report)
        out.append((f"case-{index:04d}", report))
    return out
