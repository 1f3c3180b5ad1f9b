"""thincbench: the end-to-end benchmark for the input -> pixels path.

With ``--workload`` one workload is measured in this process and the
last line of standard output is one JSON object (``--trace 0``: the
end-to-end metrics, ``--trace 1``: the per-layer ledger).  Without it,
every workload runs in a fresh subprocess of its own, one after
another — end-to-end first, then the traced run — and the collected
report is written for ``compare.py``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
# One thread, fixed hashing: must be in place before the interpreter
# and numpy start, hence the re-exec in main().  The two malloc settings
# switch off glibc's *dynamic* mmap/trim thresholds: with them, whether
# the multi-megabyte numpy temporaries of a frame or a page are reused
# from the heap or mapped and page-faulted afresh on every op depends
# on what the process allocated earlier.  video_lan then runs in one of
# two modes 28 % apart (885 000 against 26 000 page faults a run), the
# traced process in the slow one and the untraced in the fast one.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
              "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
              "MALLOC_TRIM_THRESHOLD_": str(256 << 20)}
CHILD_TIMEOUT_S = 600


def _load_benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _print_metrics(result: dict) -> None:
    detail = result["detail"]
    print(f"# {detail['workload']} seed={detail['seed']} "
          + " ".join(f"{k}={v}" for k, v in detail.items()
                     if k not in ("workload", "seed")))
    for name, metric in result["metrics"].items():
        print(f"{name:48s} {metric['value']:14.6g} {metric['unit']}")
    print(f"# attempted={result['attempted']} failed={result['failed']} "
          f"failed_ops_share={result['failed'] / result['attempted']:.6g}")


def run_one(args, import_started: float) -> int:
    """Measure one workload here; the result is the last stdout line."""
    if not (ROOT / "src" / "repro").is_dir():
        print(f"thincbench: {ROOT / 'src' / 'repro'} is missing; the "
              "benchmark measures that program", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import harness
    import_s = perf_counter() - import_started

    if args.workload not in harness.WORKLOADS:
        print(f"thincbench: unknown workload {args.workload!r}; known: "
              f"{sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace:
        result = harness.measure_layers(
            args.workload, args.seed, args.quick,
            trace_path=OUT / f"trace-{args.workload}.jsonl")
    else:
        result = harness.measure_end_to_end(
            args.workload, args.seed, args.quick, import_s)
    _print_metrics(result)
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(result))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


def _child(workload: str, args, trace: int) -> dict:
    """One workload in a fresh subprocess, so neither peak RSS nor
    allocator state leaks from one workload into the next."""
    OUT.mkdir(parents=True, exist_ok=True)
    json_out = OUT / f"result-{workload}-trace{trace}.json"
    command = [sys.executable, str(HERE / "run.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--trace", str(trace), "--json-out", str(json_out)]
    if args.quick:
        command.append("--quick")
    # run() waits for the child, and kills it first if it times out.
    done = subprocess.run(command, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"thincbench: {workload} --trace {trace} exited "
                         f"with code {done.returncode}")
    return json.loads(json_out.read_text())


def _guarded_child(workload: str, args, trace: int, rerun: list) -> dict:
    """Run once more, once, when the host-noise guard tripped (the
    run's per-rep calibration readings differ by more than 10 %).  The
    noisy run goes to *rerun*, so the report keeps every run made; a
    second noisy reading is reported as such, not hidden."""
    result = _child(workload, args, trace)
    if result["detail"]["noisy"]:
        print(f"# {workload}: noisy host (calib_ms "
              f"{result['detail']['calib_ms']}); running it once more")
        rerun.append(result)
        result = _child(workload, args, trace)
    return result


def run_all(args) -> int:
    names = [w["name"] for w in _load_benchmark_json()["workloads"]]
    report = {"seed": args.seed, "quick": args.quick, "workloads": {}}
    for name in names:
        rerun: list = []
        runs = [_guarded_child(name, args, 0, rerun)
                for _ in range(args.runs)]
        report["workloads"][name] = {
            "runs": runs,
            "layers": _guarded_child(name, args, 1, rerun),
            "noisy_runs_made_again": rerun,
        }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    entries = report["workloads"].items()
    failed = sum(run["failed"] for _, entry in entries
                 for run in entry["runs"] + [entry["layers"]]
                 + entry["noisy_runs_made_again"])
    noisy = [name for name, entry in entries
             if any(run["detail"]["noisy"]
                    for run in entry["runs"] + [entry["layers"]])]
    print(f"# report written to {out}; failed ops: {failed}; "
          f"noisy workloads: {noisy or 'none'}")
    return 0 if failed == 0 else 1


def main() -> int:
    import_started = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure this workload only, "
                        "in this process")
    parser.add_argument("--seed", type=int, default=54,
                        help="seeds every generator (default 54)")
    parser.add_argument("--seconds", type=float,
                        help="accepted because the BENCHMARK.json contract "
                        "passes it; work is fixed by op count, not by time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced per-layer run")
    parser.add_argument("--quick", action="store_true",
                        help="small op scripts, for the self-tests")
    parser.add_argument("--runs", type=int, default=1,
                        help="end-to-end runs per workload (all-workloads "
                        "mode); compare.py needs several to see spread")
    parser.add_argument("--out", default=str(OUT / "report.json"),
                        help="where the all-workloads report goes")
    parser.add_argument("--json-out", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable] + sys.argv)
    if args.workload:
        return run_one(args, import_started)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
