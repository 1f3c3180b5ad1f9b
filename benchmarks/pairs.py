"""Alternating parent/change runs of one thincbench workload.

``pairs.py --parent REV --workload W [-n 10] [--seed 54]`` is the
measuring procedure a PR that claims a gain has to follow
(``benchmarks/e2e/README.md``, "Judging a change"), which PRs 12, 15 and
17 each re-did by hand:

1. unpack *REV* (``git archive``) into ``<tmp>/parent``, so the parent
   runs its own ``benchmarks/e2e`` and its own ``src``, and copy the
   working tree's tracked and untracked, non-ignored files into the
   sibling ``<tmp>/change``, so uncommitted edits are what gets
   measured.  Both trees' paths are the same length: a longer path
   alone raises ``video_lan``'s ``peak_rss_mb`` by about 2.5 MiB;
2. run ``benchmarks/e2e/run.py --workload W --trace 0`` N times in each
   tree, one process per run, swapping which side goes first each pair;
3. print every pair, the wins per wall metric with each side's
   quartiles, and whether the simulated-clock metrics repeated to the
   last digit across all 2N runs, then hand both sides to the working
   tree's ``benchmarks/e2e/compare.py`` for the per-metric verdicts.

It only drives ``run.py`` and ``compare.py``; it measures nothing
itself.  Exit status is ``compare.py``'s (1 when a metric regressed).
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WALL = (("op_wall_ms_p50", "lower"), ("op_wall_ms_p90", "lower"),
        ("ops_per_s", "higher"), ("setup_s", "lower"))
#: Simulated-clock and byte metrics: at one seed they repeat exactly.
EXACT = ("sim_latency_ms_p50", "sim_latency_ms_p90", "wire_bytes_per_op",
         "sim_quality", "ok_ops_share")


def _copy_working_tree(dest: Path) -> None:
    """Copy the files ``git ls-files -co --exclude-standard`` names
    (tracked and untracked, not ignored) into *dest*."""
    listed = subprocess.run(
        ["git", "ls-files", "-co", "--exclude-standard", "-z"], cwd=ROOT,
        check=True, capture_output=True, text=True).stdout
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        if source.is_file():  # not a tracked file deleted from the tree
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def _run(tree: Path, workload: str, seed: int) -> dict:
    """One single-workload run in *tree*; its last stdout line is the
    JSON record ``compare.py`` reads as one entry of ``runs``."""
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _value(run: dict, metric: str) -> float:
    return run["metrics"][metric]["value"]


def _quartiles(values) -> str:
    """``median [q1, q3]`` — the claim needs the medians to differ by
    more than the parent's q3 - q1."""
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("-n", type=int, default=10, help="pairs")
    parser.add_argument("--seed", type=int, default=54)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="thincbench-pairs-") as tmp:
        parent = Path(tmp, "parent")
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(parent)
        change = Path(tmp, "change")
        _copy_working_tree(change)
        runs = {"parent": [], "change": []}
        trees = {"parent": parent, "change": change}
        for pair in range(args.n):
            order = ("parent", "change") if pair % 2 == 0 \
                else ("change", "parent")
            for side in order:
                runs[side].append(_run(trees[side], args.workload,
                                       args.seed))
            print(f"pair {pair + 1:2d} ({order[0]} first)  " + "  ".join(
                f"{metric} {_value(runs['parent'][-1], metric):.4g} -> "
                f"{_value(runs['change'][-1], metric):.4g}"
                for metric, _ in WALL), flush=True)
        for metric, better in WALL:
            a = [_value(r, metric) for r in runs["parent"]]
            b = [_value(r, metric) for r in runs["change"]]
            wins = sum(y < x if better == "lower" else y > x
                       for x, y in zip(a, b))
            print(f"# {metric}: change wins {wins}/{args.n} pairs; "
                  f"{_quartiles(a)} -> {_quartiles(b)}")
        for metric in EXACT:
            seen = {repr(_value(r, metric))
                    for side_runs in runs.values() for r in side_runs}
            print(f"# {metric}: " + (f"identical on every run ({seen.pop()})"
                                     if len(seen) == 1
                                     else f"MOVED: {sorted(seen)}"))
        for side, side_runs in runs.items():
            Path(tmp, f"{side}.json").write_text(json.dumps(
                {"seed": args.seed,
                 "workloads": {args.workload: {"runs": side_runs}}}))
        return subprocess.run(
            [sys.executable, "benchmarks/e2e/compare.py",
             str(Path(tmp, "parent.json")), str(Path(tmp, "change.json"))],
            cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
