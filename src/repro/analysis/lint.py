"""``thinclint`` — AST lint rules for the THINC reproduction.

Each rule encodes an invariant the paper states in prose (or a defect
class this codebase has actually shipped, see PR 1's hard-coded frame
overhead and hot-path ``list.pop(0)``).  The rules:

=======  ==================  ==============================================
id       name                what it enforces
=======  ==================  ==============================================
THL001   command-contract    every ``Command`` subclass declares its
                             overwrite class, the queue-manipulation
                             contract (Section 4) and its row mapping
THL002   fb-direct-write     only ``repro.display`` may write framebuffer
                             pixels directly; everyone else goes through
                             raster ops / the translation layer
THL003   head-drain          no ``list.pop(0)`` / ``del seq[0]`` O(n) head
                             drains — use ``collections.deque``
THL004   wire-constant       wire-format sizes outside ``repro.protocol``
                             must derive from ``repro.protocol.wire`` /
                             ``spec``, never be numeric literals
THL007   hand-packed-layout  a class that owns a wire id, and
                             ``core/session_unit.py``, call no
                             ``struct`` API — declare the layout as
                             ``protocol.schema`` rows
=======  ==================  ==============================================

Mutable default arguments and bare ``except:`` are ruff's ``B006`` and
``E722`` (``ruff.toml``), not rules here.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, List, Optional

from .facts import DECLARATORS
from .findings import Finding

__all__ = ["lint_tree"]

# THL001: the contract every concrete protocol command must spell out.
_COMMAND_ATTRS = ("kind", "overwrite_class")
_COMMAND_METHODS = ("translated", "clipped", "to_rows", "from_rows", "apply")

# THL007: the calls that read a layout by hand.
_UNPACKERS = ("unpack", "unpack_from", "iter_unpack")

# THL004: ALL_CAPS names that look like wire-format sizes.
_WIRE_NAME = re.compile(
    r"(WIRE|FRAME|HEADER|HDR|PACKET|MSG|MESSAGE)_?\w*?"
    r"(OVERHEAD|SIZE|BYTES|LEN)")


def _top_package(module: str) -> Optional[str]:
    """``repro.core.server`` -> ``core``; ``repro.cli`` -> None."""
    parts = module.split(".")
    if len(parts) >= 3 and parts[0] == "repro":
        return parts[1]
    return None


class _LintVisitor(ast.NodeVisitor):
    def __init__(self, path: str, module: str):
        package = _top_package(module)
        self.path = path
        self.in_protocol = package == "protocol"
        self.in_display = package == "display"
        # THL007 covers this module whole, not only its declared classes.
        self.declared_only = module == "repro.core.session_unit"
        self.findings: List[Finding] = []

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(Finding(self.path, node.lineno,
                                     node.col_offset, rule, message))

    # -- THL001 ---------------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if any(_base_name(b) == "Command" for b in node.bases):
            declared = set()
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    for tgt in stmt.targets:
                        if isinstance(tgt, ast.Name):
                            declared.add(tgt.id)
                elif isinstance(stmt, ast.AnnAssign):
                    if isinstance(stmt.target, ast.Name):
                        declared.add(stmt.target.id)
                elif isinstance(stmt, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    declared.add(stmt.name)
            missing = [n for n in _COMMAND_ATTRS + _COMMAND_METHODS
                       if n not in declared]
            if missing:
                self._flag(node, "THL001",
                           f"Command subclass {node.name} must declare its "
                           f"overwrite semantics; missing: "
                           f"{', '.join(missing)}")
        if any(isinstance(dec, ast.Call)
               and _base_name(dec.func) in DECLARATORS
               for dec in node.decorator_list):
            self._check_no_struct(node)
        self.generic_visit(node)

    def visit_Module(self, node: ast.Module) -> None:
        if self.declared_only:
            self._check_no_struct(node)
        self.generic_visit(node)

    # -- THL007 ---------------------------------------------------------------

    def _check_no_struct(self, scope: ast.AST) -> None:
        """One way to state a layout: the scope parses wire bytes only
        through a declared field table, whose parse is bounded."""
        for sub in ast.walk(scope):
            if isinstance(sub, ast.Call) \
                    and isinstance(sub.func, ast.Attribute) \
                    and (_base_name(sub.func.value) == "struct"
                         or sub.func.attr in _UNPACKERS):
                self._flag(sub, "THL007",
                           "hand-packed layout: declare it as "
                           "protocol.schema rows (a FieldTable parse is "
                           "bounded; struct calls are not)")

    # -- THL002 ---------------------------------------------------------------

    def _check_data_store(self, target: ast.AST) -> None:
        for sub in ast.walk(target):
            if (isinstance(sub, ast.Subscript)
                    and isinstance(sub.value, ast.Attribute)
                    and sub.value.attr == "data"):
                self._flag(sub, "THL002",
                           "direct framebuffer pixel write outside "
                           "repro.display; use Framebuffer raster ops "
                           "(fill_rect/put_pixels/clone/...)")

    def visit_Assign(self, node: ast.Assign) -> None:
        if not self.in_display:
            for tgt in node.targets:
                self._check_data_store(tgt)
        self._check_wire_constant(node, node.targets, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if not self.in_display:
            self._check_data_store(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_wire_constant(node, [node.target], node.value)
        self.generic_visit(node)

    # -- THL003 ---------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if (isinstance(node.func, ast.Attribute) and node.func.attr == "pop"
                and len(node.args) == 1 and not node.keywords
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == 0):
            self._flag(node, "THL003",
                       "pop(0) drains a list head in O(n); use "
                       "collections.deque and popleft()")
        if (not self.in_display and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_view"):
            self._flag(node, "THL002",
                       "Framebuffer._view is private to repro.display")
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for tgt in node.targets:
            if (isinstance(tgt, ast.Subscript)
                    and isinstance(tgt.slice, ast.Constant)
                    and tgt.slice.value == 0):
                self._flag(node, "THL003",
                           "del seq[0] drains a list head in O(n); use "
                           "collections.deque and popleft()")
        self.generic_visit(node)

    # -- THL004 ---------------------------------------------------------------

    def _check_wire_constant(self, node: ast.AST, targets: Iterable[ast.AST],
                             value: ast.AST) -> None:
        if self.in_protocol:
            return
        for tgt in targets:
            if not isinstance(tgt, ast.Name):
                continue
            name = tgt.id
            if name != name.upper() or not _WIRE_NAME.search(name):
                continue
            if _is_int_literal_expr(value):
                self._flag(node, "THL004",
                           f"{name} hard-codes a wire-format size; derive "
                           f"it from repro.protocol.wire/spec so the "
                           f"framing struct and its users cannot drift")


def _base_name(base: ast.AST) -> str:
    if isinstance(base, ast.Name):
        return base.id
    if isinstance(base, ast.Attribute):
        return base.attr
    return ""


def _is_int_literal_expr(node: ast.AST) -> bool:
    """True when *node* is an int literal or pure arithmetic on them."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, int) and not isinstance(node.value,
                                                              bool)
    if isinstance(node, ast.BinOp):
        return (_is_int_literal_expr(node.left)
                and _is_int_literal_expr(node.right))
    if isinstance(node, ast.UnaryOp):
        return _is_int_literal_expr(node.operand)
    return False


def lint_tree(tree: ast.Module, module: str,
              path: str = "<string>") -> List[Finding]:
    """Lint one parsed module; *module* is its dotted import path."""
    visitor = _LintVisitor(path, module)
    visitor.visit(tree)
    return visitor.findings
