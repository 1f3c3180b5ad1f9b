"""Compare two thincbench reports: ``compare.py A.json B.json``.

Both files are reports written by ``run.py`` in all-workloads mode
(``--out``, ideally with ``--runs 3`` or more so a spread exists), at
the same seed, where the simulated-clock metrics repeat exactly.  For
every workload x end-to-end metric it prints both medians, the ratio
B/A (A is the base) and a verdict against the metric's bound in
``BENCHMARK.json``:

``ok``          B's median is no worse than A's by more than the bound;
``regressed``   it is worse by more than the bound;
``unresolved``  the run-to-run spread (interquartile range over the
                median, the larger of the two sides) exceeds the bound,
                so the comparison cannot tell — unless every run of B
                reads better than every run of A, which is ``ok``.

Exits 1 when anything regressed, 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parents[2]


def _values(report: dict, workload: str, metric: str) -> List[float]:
    return [run["metrics"][metric]["value"]
            for run in report["workloads"][workload]["runs"]]


def _spread(values: List[float]) -> Optional[float]:
    """Interquartile range as a share of the median; None for one run."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> dict:
    """Judge B against base A for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    spreads = [s for s in (_spread(a), _spread(b)) if s is not None]
    spread = max(spreads) if spreads else None
    if spread is not None and spread > bound:
        all_better = (max(b) < min(a)) if better == "lower" \
            else (min(b) > max(a))
        word = "ok" if all_better else "unresolved"
    else:
        word = "regressed" if worse_by > bound else "ok"
    return {"median_a": med_a, "median_b": med_b,
            "ratio": med_b / med_a if med_a else float("nan"),
            "worse_by": worse_by, "spread": spread, "verdict": word}


def compare(report_a: dict, report_b: dict, benchmark: dict) -> List[dict]:
    rows = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        if workload not in report_a["workloads"] \
                or workload not in report_b["workloads"]:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            row = verdict(_values(report_a, workload, name),
                          _values(report_b, workload, name),
                          metric["better"], metric["bound"])
            row.update(workload=workload, metric=name,
                       unit=metric["unit"], bound=metric["bound"])
            rows.append(row)
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    report_a = json.loads(Path(argv[1]).read_text())
    report_b = json.loads(Path(argv[2]).read_text())
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if report_a["seed"] != report_b["seed"]:
        # The simulated-clock metrics are exact only at one seed.
        print(f"# warning: A ran seed {report_a['seed']}, B seed "
              f"{report_b['seed']}; compare runs of the same seed")
    rows = compare(report_a, report_b, benchmark)
    print(f"{'workload':12s} {'metric':20s} {'A (base)':>13s} {'B':>13s} "
          f"{'unit':7s} {'B/A':>8s} {'spread':>8s} {'bound':>6s} verdict")
    for row in rows:
        spread = "n/a" if row["spread"] is None \
            else f"{row['spread'] * 100:.2f}%"
        print(f"{row['workload']:12s} {row['metric']:20s} "
              f"{row['median_a']:13.6g} {row['median_b']:13.6g} "
              f"{row['unit']:7s} {row['ratio']:8.4f} {spread:>8s} "
              f"{row['bound'] * 100:5.4g}% {row['verdict']}")
    tally = {word: sum(r["verdict"] == word for r in rows)
             for word in ("ok", "regressed", "unresolved")}
    print(f"# base: A = {argv[1]}; {tally['ok']} ok, "
          f"{tally['regressed']} regressed, {tally['unresolved']} unresolved")
    return 1 if tally["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
