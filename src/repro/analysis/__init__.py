"""Repo-specific static analysis for the THINC reproduction.

The paper states its correctness conditions in prose; this package
checks the ones nothing else in the repo checks:

* :mod:`repro.analysis.lint` — ``thinclint``, AST rules derived from
  the paper's invariants (every protocol command declares its
  overwrite class and queue-manipulation contract, no direct
  framebuffer writes outside the display layer, no O(n) head drains,
  no hard-coded wire-format sizes, no hand-packed wire layouts).
* :mod:`repro.analysis.layering` — the import checker enforcing the
  translation architecture's dependency DAG (the machine-readable map
  lives in :mod:`repro.analysis.layermap`).
* :mod:`repro.analysis.facts` + :mod:`repro.analysis.contracts` — the
  whole-program protocol-contract rules (THL201, THL202, THL204,
  THL205): declared wire
  classes and their field tables, parser accept sets, dispatch sites,
  the SessionUnit serialization surface and wall-clock calls,
  cross-checked against each other; the same facts render the
  conformance matrix (``docs/CONTRACTS.md``).

What other tools own is not repeated here: the schema refuses a
duplicate wire id at import, and ruff's ``B006`` / ``E722`` catch
mutable defaults and bare excepts.  The runtime queue sanitizer is
:mod:`repro.core.sanitizer`.

:func:`run_all` is the one entry point: it parses each module once and
hands the tree to every check.  ``make analyze`` runs it through
``python -m repro.analysis``; see ``docs/ANALYSIS.md`` for the rule
catalogue.
"""

import ast
from pathlib import Path
from typing import List, Tuple

from .contracts import (check_clock_sweep, check_contracts,
                        render_contract_matrix)
from .facts import Facts, extract_facts
from .findings import Finding, format_findings
from .layering import check_tree
from .lint import lint_tree

__all__ = ["Finding", "format_findings", "run_all", "module_name_for",
           "render_contract_matrix"]


def module_name_for(path: Path) -> str:
    """Dotted module path for a file under a ``repro`` package root.

    ``__init__`` is kept as a path component so a package's own
    __init__ module still maps to the right package.
    """
    parts = list(path.with_suffix("").parts)
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    return ".".join(parts) or "repro"


def _parse_tree(top: Path) -> List[Tuple[str, ast.Module]]:
    """``(path relative to top, AST)`` for every module under *top*."""
    return [(path.relative_to(top).as_posix(),
             ast.parse(path.read_text(), filename=str(path)))
            for path in sorted(top.rglob("*.py"))
            if "__pycache__" not in path.parts]


def run_all(root) -> Tuple[List[Finding], Facts]:
    """Every rule over the checkout at *root*: lint, layering and the
    contract rules over ``src/repro``, and the THL205 sweep of
    ``tests/`` and ``benchmarks/``.  Returns the sorted findings and
    the package's facts (which render the conformance matrix)."""
    root = Path(root)
    package = root / "src" / "repro"
    modules = _parse_tree(package)
    findings: List[Finding] = []
    for rel, tree in modules:
        path = str(package / rel)
        module = module_name_for(Path("repro", rel))
        findings += lint_tree(tree, module, path)
        findings += check_tree(tree, module, path)
    facts = extract_facts(package, modules)
    findings += check_contracts(facts)
    for swept in (root / "tests", root / "benchmarks"):
        if swept.is_dir():
            findings += check_clock_sweep(
                extract_facts(swept, _parse_tree(swept)))
    return sorted(findings), facts
