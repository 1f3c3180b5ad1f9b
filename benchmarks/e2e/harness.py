"""thincbench measurement: reps, end-to-end metrics, the layer ledger.

One process measures one workload.  Set-up (op-script generation, rig
construction and a warm-up pass) is repeated and its median reported;
then a fixed number of whole reps of the op script run on fresh rigs,
so both sides of an A/B do identical work.  Op i is the same work in
every rep: its wall cost is the median of its samples across the reps,
and the wall percentiles are taken over the ops of a rep.
Simulated-clock metrics are read from one rep, and every other rep must
reproduce them exactly or its ops count as failed.

Wall times are reported in *reference-host* milliseconds.  The hosts
this runs on change speed by 10-25 % from second to second and drift by
as much over minutes, which is more than the bounds the benchmark has
to hold.  A fixed calibration snippet is therefore interleaved with the
ops, outside their timed intervals, and each rep's wall times are
divided by how much slower than the reference (8 ms per snippet) the
host was during that rep.  The raw readings are printed next to them.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

from tracing import LAYERS, Tracer
from workloads import DOWN, WORKLOADS, Rig, Workload

__all__ = ["END_TO_END", "EXTRA_LAYER_METRICS", "LAYERS", "HostSpeed",
           "measure_end_to_end", "measure_layers", "run_rep"]

#: name -> (unit, better); the bounds live in BENCHMARK.json.
END_TO_END = {
    "op_wall_ms_p50": ("ms", "lower"),
    "op_wall_ms_p90": ("ms", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "sim_latency_ms_p50": ("sim_ms", "lower"),
    "sim_latency_ms_p90": ("sim_ms", "lower"),
    "wire_bytes_per_op": ("B", "lower"),
    "ok_ops_share": ("ratio", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
    "setup_s": ("s", "lower"),
    "sim_quality": ("ratio", "higher"),
}

#: Per-layer metrics beyond <layer>.calls_per_op / .self_ms_per_op.
EXTRA_LAYER_METRICS = {
    "core.translation.commands_per_driver_op": ("count", "lower"),
    "core.command_queue.survivor_ratio": ("ratio", "lower"),
    "core.pipeline.cache_hit_ratio": ("ratio", "higher"),
    "core.pipeline.cpu_model_ms_per_op": ("sim_ms", "lower"),
    "core.resize.pixels_in_per_op": ("count", "lower"),
    "codec.bytes_in_per_op": ("B", "lower"),
    "codec.ratio": ("ratio", "higher"),
    "core.delivery.commands_split_per_op": ("count", "lower"),
    "core.delivery.queue_depth_max": ("count", "lower"),
    "core.delivery.pending_bytes_max": ("B", "lower"),
    "core.session_unit.flush_periods_per_op": ("count", "lower"),
    "protocol.wire.encode.bytes_per_msg": ("B", "lower"),
    "net.transport.segments_per_op": ("count", "lower"),
    "net.transport.backlog_bytes_max": ("B", "lower"),
    "net.clock.events_per_op": ("count", "lower"),
    "protocol.wire.decode.messages_per_feed": ("count", "higher"),
    "core.client.commands_applied_per_op": ("count", "lower"),
    "core.client.cost_model_ms_per_op": ("sim_ms", "lower"),
    "video.yuv.server_present_ms_per_op": ("ms", "lower"),
    "video.yuv.client_apply_ms_per_op": ("ms", "lower"),
    "harness.unattributed_share": ("ratio", "lower"),
    "harness.calib_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

SETUP_REPEATS = 3
# Two reps at the least, so every run checks that a rep repeats exactly.
QUICK_REPS = 2
# Untraced/traced rep pairs of the traced run.
TRACED_PAIRS = 2


# -- host speed ------------------------------------------------------------------

#: Seconds one calibration snippet takes on the reference host.
SNIPPET_REF_S = 8e-3
#: Share of the ops' wall time spent timing interleaved snippets.
CALIB_SHARE = 0.08
# The host-noise guard: per-rep calibration readings of one run further
# apart than this mark the run as noisy.
NOISE_LIMIT = 0.10

_FRAME = np.random.default_rng(2005).integers(
    0, 256, (240, 352, 3), dtype=np.uint8)
_GATHER = np.ix_(np.arange(768) * 240 // 768, np.arange(1024) * 352 // 1024)


def _snippet() -> float:
    """Seconds one pass of the fixed calibration snippet took: a
    fancy-index gather of a 352x240 frame to 1024x768, ~8 ms of
    interpreter-free index arithmetic and memory traffic.  The same
    work on every call, so a different reading means the host changed
    speed, not the program.  An untimed pass comes first, so the timed
    one runs on its own warm working set whatever the op before it
    left in the caches."""
    _FRAME[_GATHER]
    start = perf_counter()
    _FRAME[_GATHER]
    return perf_counter() - start


class HostSpeed:
    """Interleaves calibration snippets with the ops being timed."""

    def __init__(self) -> None:
        self._debt = 0.0
        self._samples: List[float] = []
        self.spent = 0.0  # seconds the snippets have taken so far

    def after(self, op_seconds: float) -> None:
        """Called between ops: keep timed snippet time at CALIB_SHARE
        of the op time (several snippets after a long op, one every few
        short ones)."""
        self._debt += op_seconds * CALIB_SHARE
        began = perf_counter()
        while self._debt > 0.0:
            took = _snippet()
            self._samples.append(took)
            self._debt -= took
        self.spent += perf_counter() - began

    def take(self) -> float:
        """How many times slower than the reference host this one was
        over the snippets run since the last call."""
        if not self._samples:
            self._samples.append(_snippet())
        factor = statistics.fmean(self._samples) / SNIPPET_REF_S
        self._samples = []
        return factor


# -- one rep ---------------------------------------------------------------------

@dataclass
class Rep:
    n_ops: int
    # Seconds per op, and for the ops plus the final drain (snippets
    # excluded): both as measured, ``factor`` times the reference host's.
    walls: List[float] = field(default_factory=list)
    wall: float = 0.0
    factor: float = 1.0  # host slowdown against the reference host
    origin: float = 0.0  # perf_counter when the first op was issued
    latencies: List[Optional[float]] = field(default_factory=list)
    failed: set = field(default_factory=set)
    wire_bytes: int = 0
    quality: float = 0.0
    digest: int = 0
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def ref_wall(self) -> float:
        """``wall`` in reference-host seconds."""
        return self.wall / self.factor

    def fingerprint(self) -> tuple:
        """Everything that must repeat exactly between reps of a seed."""
        return (tuple(self.latencies), self.wire_bytes, self.quality,
                self.digest)


def _counters(rig: Rig) -> Dict[str, float]:
    """Counts the layers already keep, read through public accessors."""
    driver = rig.server.driver.stats
    stages = rig.server.pipeline_stats()
    return {
        "driver_ops": driver["driver_ops"],
        "driver_commands": (driver["onscreen_commands"]
                            + driver["offscreen_commands"]
                            + driver["replayed_commands"]
                            + driver["raw_fallbacks"]),
        "cache_hits": stages["prepare"]["cache_hits"],
        "cache_misses": stages["prepare"]["cache_misses"],
        "cpu_model_s": stages["prepare"]["cpu_seconds"],
        "commands_split": stages["buffer"]["commands_split"],
        "flush_periods": stages["flush"]["flush_periods"],
        "segments": rig.conn.down.segments_sent,
        "events": rig.loop.events_run,
        "client_commands": rig.client.total_commands(),
        "client_cost_s": rig.client.stats["processing_time"],
    }


def run_rep(workload: Workload, script, n_ops: int,
            tracer: Optional[Tracer] = None,
            tamper: Optional[Callable[[Rig], None]] = None,
            host: Optional[HostSpeed] = None) -> Rep:
    """One pass over the first *n_ops* ops of *script* on a fresh rig.

    *tamper*, when given, is called with the drained rig before the
    correctness checks (the self-tests corrupt a framebuffer with it).
    """
    gc.collect()
    host = host or HostSpeed()
    rig = workload.start(script)
    rep = Rep(n_ops)
    before = _counters(rig)
    bytes_before = rig.monitor.total_bytes(DOWN)
    if tracer is not None:
        tracer.begin(rig.loop.clock)
    drained = False
    rep.origin = perf_counter()
    try:
        for i in range(n_ops):
            if tracer is not None:
                tracer.op = i
            start = perf_counter()
            ok = workload.issue(rig, script, i)
            took = perf_counter() - start
            rep.walls.append(took)
            if not ok:
                rep.failed.add(i)
            host.after(took)
        if tracer is not None:
            tracer.op = n_ops
        start = perf_counter()
        drained = workload.finish(rig, script)
        rep.wall = perf_counter() - start
    except Exception:
        # An op that raises fails, and so does the rest of its rep: the
        # rig's state is unknown from here on.
        traceback.print_exc(file=sys.stderr)
    rep.wall += sum(rep.walls)
    rep.factor = host.take()
    if tamper is not None:
        tamper(rig)
    after = _counters(rig)
    rep.counters = {k: after[k] - before[k] for k in after}
    rep.wire_bytes = rig.monitor.total_bytes(DOWN) - bytes_before
    for i in range(n_ops):
        done = rig.done[i] if i < len(rig.done) else None
        if done is None:
            rep.failed.add(i)
            rep.latencies.append(None)
        else:
            rep.latencies.append(done - rig.issued[i] + rig.extra[i])
    rep.quality = workload.quality(rig, script)
    rep.digest = rig.client.fb.checksum() if rig.client.fb is not None else 0
    if not drained or not workload.verify(rig):
        rep.failed.update(range(n_ops))
    return rep


# -- set-up -------------------------------------------------------------------------

def _warm_ops(n_ops: int) -> int:
    return max(1, -(-n_ops // 3))


def _set_up(workload: Workload, seed: int, n_ops: int):
    """Generate the op script and warm the process with a third of a
    rep; returns (script, seconds as measured, host slowdown)."""
    host = HostSpeed()
    start = perf_counter()
    script = workload.build(seed, n_ops)
    warm = run_rep(workload, script, _warm_ops(n_ops), host=host)
    took = perf_counter() - start - host.spent
    if warm.failed:
        raise RuntimeError(f"{workload.name}: warm-up ops failed: "
                           f"{sorted(warm.failed)}")
    return script, took, warm.factor


def _percentile(values: List[float], percent: int) -> float:
    """Nearest-rank percentile of a non-empty list, 0.0 of an empty one."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, -(-percent * len(ordered) // 100) - 1)]


def _mark_divergent(reps: List[Rep]) -> None:
    """A rep that does not reproduce the first rep's simulated-clock
    results, wire bytes and client pixels fails all of its ops."""
    reference = reps[0].fingerprint()
    for rep in reps[1:]:
        if rep.fingerprint() != reference:
            rep.failed.update(range(rep.n_ops))


def _wall_metrics(reps: List[Rep], n_ops: int,
                  slowdown: Callable[[Rep], float]) -> Dict[str, float]:
    """The wall metrics of a run, each rep's times divided by
    *slowdown(rep)*.

    Op i is the same work in every rep, so its cost is the median of
    its samples across the reps and the percentiles are taken over the
    ops of a rep.  Percentiles over all samples pooled measure the host
    instead: the 90th of video_lan's identical frames is its noise
    tail, 14-27 % apart between identical runs.
    """
    walls_ms = [statistics.median(rep.walls[i] * 1000.0 / slowdown(rep)
                                  for rep in reps if i < len(rep.walls))
                for i in range(max(len(rep.walls) for rep in reps))]
    return {
        "op_wall_ms_p50": _percentile(walls_ms, 50),
        "op_wall_ms_p90": _percentile(walls_ms, 90),
        "ops_per_s": n_ops / statistics.median(
            rep.wall / slowdown(rep) for rep in reps),
    }


def _calib_ms(reps: List[Rep]) -> List[float]:
    """Fastest and slowest per-rep mean snippet time, in ms."""
    factors = [rep.factor for rep in reps]
    return [min(factors) * SNIPPET_REF_S * 1e3,
            max(factors) * SNIPPET_REF_S * 1e3]


def _noisy(reps: List[Rep]) -> bool:
    """The host-noise guard: the calibration readings of a run's reps
    differ by more than NOISE_LIMIT, i.e. the host changed speed while
    the run was measured."""
    fastest, slowest = _calib_ms(reps)
    return slowest / fastest - 1.0 > NOISE_LIMIT


def _sizes(workload: Workload, quick: bool):
    """(ops per rep, timed reps)."""
    if quick:
        return workload.ops_quick, QUICK_REPS
    return workload.ops_full, workload.reps_full


# -- the end-to-end run ----------------------------------------------------------------

def measure_end_to_end(name: str, seed: int, quick: bool, import_s: float,
                       tamper: Optional[Callable[[Rig], None]] = None
                       ) -> dict:
    workload = WORKLOADS[name]
    n_ops, n_reps = _sizes(workload, quick)
    setups = []
    factors = []
    for _ in range(SETUP_REPEATS):
        script, took, factor = _set_up(workload, seed, n_ops)
        setups.append(took)
        factors.append(factor)
    reps = [run_rep(workload, script, n_ops, tamper=tamper)
            for _ in range(n_reps)]
    _mark_divergent(reps)

    attempted = n_ops * n_reps
    failed = sum(len(rep.failed) for rep in reps)
    wall = _wall_metrics(reps, n_ops, lambda rep: rep.factor)
    raw = _wall_metrics(reps, n_ops, lambda rep: 1.0)
    latencies_ms = [lat * 1000.0 for lat in reps[0].latencies
                    if lat is not None]
    values = {
        **wall,
        "sim_latency_ms_p50": _percentile(latencies_ms, 50),
        "sim_latency_ms_p90": _percentile(latencies_ms, 90),
        "wire_bytes_per_op": reps[0].wire_bytes / n_ops,
        "ok_ops_share": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # Imports happen once, at the first set-up's host speed.
        "setup_s": import_s / factors[0] + statistics.median(
            s / f for s, f in zip(setups, factors)),
        "sim_quality": reps[0].quality,
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": END_TO_END[k][0]}
                    for k in END_TO_END},
        "detail": {
            "workload": name, "seed": seed, "quick": quick,
            # The wall percentiles are over ops_per_rep op costs, each
            # the median of `reps` samples.
            "ops_per_rep": n_ops, "reps": n_reps,
            "latency_samples": len(latencies_ms),
            # Ops are issued at fixed simulated times whatever the wall
            # clock does, so the open-loop generator cannot run late.
            "generator_lateness_ms": 0.0,
            # As measured on this host, before normalising.
            **{f"raw_{k}": v for k, v in raw.items()},
            "raw_setup_s": import_s + statistics.median(setups),
            "calib_ms": _calib_ms(reps),
            "noisy": _noisy(reps),
        },
    }


# -- the traced run ----------------------------------------------------------------------

SPAN_PROBE = "term_scroll"  # ~1 400 spans per op: the densest workload
SPAN_PROBE_PAIRS = 4


def _calibrate_spans(tracer: Tracer) -> None:
    """Set the tracer's per-span cost in reference-host seconds.

    A wrapped no-op gives the split between the cost inside a span's
    own interval and the cost its parent sees, but amid real work (cold
    caches, callbacks wrapped as they are scheduled, counts taken) a
    span costs two to three times what it does in a tight loop.  The
    total therefore comes from the span-dense probe workload at quick
    size: traced wall minus untraced wall, per span.
    """
    tracer.calibrate()
    probe = WORKLOADS[SPAN_PROBE]
    n_ops = probe.ops_quick
    script = probe.build(0, n_ops)
    run_rep(probe, script, n_ops)
    plain, traced = [], []
    for _ in range(SPAN_PROBE_PAIRS):
        plain.append(run_rep(probe, script, n_ops).ref_wall)
        with tracer:
            traced.append(run_rep(probe, script, n_ops,
                                  tracer=tracer).ref_wall)
    tight = tracer.inner_s + tracer.outer_s
    amid_work = max(tight, (statistics.median(traced)
                            - statistics.median(plain)) / len(tracer))
    tracer.inner_s *= amid_work / tight
    tracer.outer_s *= amid_work / tight


def _layer_metrics(ledger: dict, rep: Rep) -> Dict[str, float]:
    """The ledger of one traced rep as per-op metrics; times are in
    reference-host ms like the end-to-end ones."""
    def ratio(a, b):
        return a / b if b else 0.0

    n_ops = rep.n_ops
    counters = rep.counters
    ms_per_op = 1000.0 / rep.factor / n_ops
    counts = ledger["counts"]
    calls = ledger["calls"]
    above = ledger["by_parent_layer"]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls_per_op"] = calls[layer] / n_ops
        metrics[f"{layer}.self_ms_per_op"] = \
            ledger["self_s"][layer] * ms_per_op
    metrics.update({
        "core.translation.commands_per_driver_op": ratio(
            counters["driver_commands"], counters["driver_ops"]),
        "core.command_queue.survivor_ratio": ratio(
            counts.get("queue_left", 0), counts.get("queue_added", 0)),
        "core.pipeline.cache_hit_ratio": ratio(
            counters["cache_hits"],
            counters["cache_hits"] + counters["cache_misses"]),
        "core.pipeline.cpu_model_ms_per_op":
            counters["cpu_model_s"] * 1000.0 / n_ops,
        "core.resize.pixels_in_per_op":
            counts.get("resize_pixels", 0) / n_ops,
        "codec.bytes_in_per_op": counts.get("codec_in", 0) / n_ops,
        "codec.ratio": ratio(counts.get("codec_in", 0),
                             counts.get("codec_out", 0)),
        "core.delivery.commands_split_per_op":
            counters["commands_split"] / n_ops,
        "core.delivery.queue_depth_max": counts.get("queue_depth_max", 0),
        "core.delivery.pending_bytes_max":
            counts.get("pending_bytes_max", 0),
        "core.session_unit.flush_periods_per_op":
            counters["flush_periods"] / n_ops,
        "protocol.wire.encode.bytes_per_msg": ratio(
            counts.get("encoded_bytes", 0), calls["protocol.wire.encode"]),
        "net.transport.segments_per_op": counters["segments"] / n_ops,
        "net.transport.backlog_bytes_max":
            counts.get("backlog_bytes_max", 0),
        "net.clock.events_per_op": counters["events"] / n_ops,
        "protocol.wire.decode.messages_per_feed": ratio(
            counts.get("decoded_messages", 0),
            calls["protocol.wire.decode"]),
        "core.client.commands_applied_per_op":
            counters["client_commands"] / n_ops,
        "core.client.cost_model_ms_per_op":
            counters["client_cost_s"] * 1000.0 / n_ops,
        "video.yuv.server_present_ms_per_op":
            above.get(("video.yuv", "display"), 0.0) * ms_per_op,
        "video.yuv.client_apply_ms_per_op":
            above.get(("video.yuv", "core.client"), 0.0) * ms_per_op,
        # What the op loop spent outside every span, as a share of the
        # traced wall with the wrappers' own cost taken out of both.
        "harness.unattributed_share": 1.0 - ratio(
            sum(ledger["self_s"].values()),
            rep.wall - ledger["overhead_s"]),
    })
    return metrics


def measure_layers(name: str, seed: int, quick: bool,
                   trace_path: Optional[Path] = None) -> dict:
    """Alternate untraced and traced reps; per-layer metrics are medians
    over the traced reps, and the untraced reps are the base of
    ``trace.overhead_pct``."""
    workload = WORKLOADS[name]
    n_ops, _ = _sizes(workload, quick)
    script, _, _ = _set_up(workload, seed, n_ops)
    tracer = Tracer()
    _calibrate_spans(tracer)
    plain: List[Rep] = []
    traced: List[Rep] = []
    per_rep: List[Dict[str, float]] = []
    for _ in range(TRACED_PAIRS):
        plain.append(run_rep(workload, script, n_ops))
        with tracer:
            rep = run_rep(workload, script, n_ops, tracer=tracer)
        traced.append(rep)
        per_rep.append(_layer_metrics(tracer.ledger(rep.factor), rep))
    if trace_path is not None:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(trace_path, traced[-1].origin)
    reps = plain + traced
    _mark_divergent(reps)

    values = {key: statistics.median(m[key] for m in per_rep)
              for key in per_rep[0]}
    base = statistics.median(rep.ref_wall for rep in plain)
    values["trace.overhead_pct"] = (statistics.median(
        rep.ref_wall for rep in traced) / base - 1.0) * 100.0
    values["harness.calib_ms"] = statistics.median(
        rep.factor for rep in reps) * SNIPPET_REF_S * 1e3
    units = {f"{layer}.calls_per_op": "count" for layer in LAYERS}
    units.update({f"{layer}.self_ms_per_op": "ms" for layer in LAYERS})
    units.update({k: v[0] for k, v in EXTRA_LAYER_METRICS.items()})
    attempted = n_ops * len(reps)
    failed = sum(len(rep.failed) for rep in reps)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
        "detail": {
            "workload": name, "seed": seed, "quick": quick,
            "traced_reps": len(traced), "ops_per_rep": n_ops,
            "spans_per_rep": len(tracer),
            "span_cost_us": [tracer.inner_s * 1e6, tracer.outer_s * 1e6],
            "overhead_base_s": base,
            "calib_ms": _calib_ms(reps),
            "noisy": _noisy(reps),
        },
    }
