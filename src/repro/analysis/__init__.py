"""Repo-specific static analysis for the THINC reproduction.

The paper states its correctness conditions in prose; this package
checks them mechanically:

* :mod:`repro.analysis.lint` — ``thinclint``, an AST linter with rules
  derived from the paper's invariants (every protocol command declares
  its overwrite class and queue-manipulation contract, no direct
  framebuffer writes outside the display layer, no O(n) head drains on
  hot paths, no hard-coded wire-format constants, no mutable default
  arguments, no bare excepts, no hand-packed wire layouts).
* :mod:`repro.analysis.layering` — an import checker enforcing the
  translation architecture's dependency DAG (the machine-readable map
  lives in :mod:`repro.analysis.layermap`).
* :mod:`repro.analysis.facts` + :mod:`repro.analysis.contracts` — the
  whole-program protocol-contract analyzer (rules THL200–THL205): one
  AST pass over all of ``src/repro`` collects the declared wire
  classes and their field tables, parser accept sets, dispatch sites,
  the SessionUnit serialization surface and wall-clock calls; the rule
  engine cross-checks those facts against the ``PROTOCOL_SPEC``
  registry, renders the conformance matrix (``docs/CONTRACTS.md``) and
  gates CI through the committed findings baseline
  (``analysis_baseline.json``).
* :mod:`repro.analysis.sanitizer` — wiring for the opt-in runtime
  command-queue sanitizer (``THINC_SANITIZE=1``) whose checks live in
  :mod:`repro.core.sanitizer`, next to the queue it validates.

Run everything with ``make analyze``, or directly:
``python -m repro.analysis`` (lint + layering) and
``python -m repro.analysis --contracts`` (contract rules + baseline +
matrix); see ``docs/ANALYSIS.md`` for the rule catalogue, suppression
syntax and the baseline workflow.
"""

from .contracts import (CONTRACT_RULES, apply_baseline, check_clock_sweep,
                        check_contracts, finding_key, load_baseline,
                        render_contract_matrix)
from .facts import extract_facts
from .findings import Finding, format_findings
from .layering import check_layering
from .lint import RULES, lint_path, lint_source

__all__ = ["Finding", "format_findings", "RULES", "lint_source",
           "lint_path", "check_layering", "run_all",
           "CONTRACT_RULES", "extract_facts", "check_contracts",
           "check_clock_sweep", "render_contract_matrix",
           "load_baseline", "apply_baseline", "finding_key"]


def run_all(root):
    """Lint + layering over *root*; returns a sorted finding list."""
    findings = list(lint_path(root))
    findings.extend(check_layering(root))
    return sorted(findings)
