"""CLI for the THINC invariant analyzer.

Usage::

    python -m repro.analysis [root] [--matrix-out FILE]

Runs every rule over the checkout at *root* (default: the one this
package lives in) — lint, layering and the contract rules over
``src/repro``, the THL205 sweep of ``tests/`` and ``benchmarks/`` — and
checks that ``docs/CONTRACTS.md`` is the conformance matrix the same
pass renders.  Exits 1 on any finding or a stale matrix; this is what
``make analyze`` and the CI ``analyze`` job run.  ``--matrix-out``
writes the matrix first (``make contracts-doc``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import render_contract_matrix, run_all
from .findings import format_findings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="thinclint + layering + protocol-contract checks "
                    "for the THINC repo")
    # .../src/repro/analysis/__main__.py -> the checkout
    parser.add_argument("root", nargs="?", type=Path,
                        default=Path(__file__).resolve().parents[3],
                        help="checkout holding src/repro (default: this "
                             "one)")
    parser.add_argument("--matrix-out", type=Path, metavar="FILE",
                        help="write the conformance matrix here "
                             "(docs/CONTRACTS.md) before the check")
    args = parser.parse_args(argv)

    if not (args.root / "src" / "repro").is_dir():
        print(f"error: {args.root} has no src/repro", file=sys.stderr)
        return 2
    findings, facts = run_all(args.root)
    if findings:
        print(format_findings(findings))
    matrix = render_contract_matrix(facts)
    if args.matrix_out is not None:
        args.matrix_out.parent.mkdir(parents=True, exist_ok=True)
        args.matrix_out.write_text(matrix)
        print(f"wrote {args.matrix_out}", file=sys.stderr)
    committed = args.root / "docs" / "CONTRACTS.md"
    stale = not committed.exists() or committed.read_text() != matrix
    if stale:
        print(f"{committed} is stale; regenerate with make contracts-doc")
    print(f"repro.analysis: {len(findings)} finding(s) over "
          f"{len(facts.spec)} spec ids", file=sys.stderr)
    return 1 if findings or stale else 0


if __name__ == "__main__":
    sys.exit(main())
