"""Import-layering checker for the ``repro`` dependency DAG.

Resolves a module's imports (absolute and relative) to top-level
``repro`` subpackages and reports any edge the layer map
(:mod:`repro.analysis.layermap`) forbids, with file:line positions.
Only imports inside the ``repro`` namespace are checked — stdlib and
third-party imports are out of scope.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from . import layermap
from .findings import Finding

__all__ = ["check_tree"]

RULE = "THL100"


def _imported_packages(tree: ast.Module, module: str,
                       known_packages: Tuple[str, ...],
                       ) -> Iterator[Tuple[Optional[str], int]]:
    """Yield (top-level repro package or None, lineno) per repro import.

    ``None`` means a top-level module (``repro.cli`` and friends).
    *known_packages* distinguishes ``from . import subpackage`` from
    plain module imports when resolution lands on ``repro`` itself.
    """
    mod_parts = module.split(".")
    # The package a relative import is resolved against: the module's
    # parent, or the module itself for a package __init__.
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] != layermap.PACKAGE:
                    continue
                if len(parts) > 1 and parts[1] in known_packages:
                    yield parts[1], node.lineno
                else:
                    # ``import repro`` or ``import repro.cli``: top level.
                    yield None, node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = (node.module or "").split(".")
                if base[0] != layermap.PACKAGE:
                    continue
            else:
                # Resolve the relative import against this module.
                base = mod_parts[:-1] if len(mod_parts) > 1 else mod_parts
                if node.level > 1:
                    base = base[: len(base) - (node.level - 1)]
                if not base or base[0] != layermap.PACKAGE:
                    continue
                base = base + (node.module.split(".") if node.module else [])
            if len(base) >= 2:
                yield (base[1] if base[1] in known_packages else None), \
                    node.lineno
            else:
                # ``from repro import x`` / ``from .. import x`` — each
                # name may itself be a subpackage.
                for alias in node.names:
                    if alias.name in known_packages:
                        yield alias.name, node.lineno
                    else:
                        yield None, node.lineno


def check_tree(tree: ast.Module, module: str,
               path: str = "<string>") -> List[Finding]:
    """Layer-check one parsed module against the layer map.

    *module* is its dotted name with ``__init__`` kept, so a package's
    own ``__init__`` resolves relative imports against the package.
    """
    mod_parts = module.split(".")
    importer = mod_parts[1] if len(mod_parts) >= 3 else None
    known = tuple(layermap.LAYER_RANKS)
    out: List[Finding] = []
    for imported, lineno in _imported_packages(tree, module, known):
        if not layermap.import_allowed(importer, imported):
            out.append(Finding(path, lineno, 0, RULE,
                               layermap.explain(importer, imported)))
    return out
