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
THL005   mutable-default     no mutable default arguments
THL006   bare-except         no bare ``except:`` clauses
THL007   hand-packed-layout  a class that owns a wire id, and
                             ``core/session_unit.py``, call no
                             ``struct`` API — declare the layout as
                             ``protocol.schema`` rows
=======  ==================  ==============================================

Suppress a finding by appending a ``thinclint: skip`` comment (all
rules) or ``thinclint: skip=THL003`` (one rule, comma-separate for
several) to the offending line.  ``make analyze`` requires ``src/repro``
to be both finding-free and suppression-free.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .facts import DECLARATORS
from .findings import Finding

__all__ = ["RULES", "lint_source", "lint_path", "find_suppressions"]

#: (id, name, summary) for every rule — rendered into docs/ANALYSIS.md.
RULES: Sequence[Tuple[str, str, str]] = (
    ("THL001", "command-contract",
     "Command subclasses must declare kind, overwrite_class and the "
     "translated/clipped/to_rows/from_rows/apply contract"),
    ("THL002", "fb-direct-write",
     "only repro.display may write Framebuffer.data directly"),
    ("THL003", "head-drain",
     "list.pop(0) / del seq[0] head drains are O(n); use collections.deque"),
    ("THL004", "wire-constant",
     "wire-format sizes outside repro.protocol must derive from "
     "repro.protocol.wire/spec, not numeric literals"),
    ("THL005", "mutable-default",
     "mutable default arguments are shared across calls"),
    ("THL006", "bare-except",
     "bare except swallows KeyboardInterrupt/SystemExit and hides bugs"),
    ("THL007", "hand-packed-layout",
     "a wire-id class and core/session_unit.py call no struct API; "
     "declare the layout as protocol.schema rows"),
)

# THL001: the contract every concrete protocol command must spell out.
_COMMAND_ATTRS = ("kind", "overwrite_class")
_COMMAND_METHODS = ("translated", "clipped", "to_rows", "from_rows", "apply")

# THL007: the calls that read a layout by hand.
_UNPACKERS = ("unpack", "unpack_from", "iter_unpack")

# THL004: ALL_CAPS names that look like wire-format sizes.
_WIRE_NAME = re.compile(
    r"(WIRE|FRAME|HEADER|HDR|PACKET|MSG|MESSAGE)_?\w*?"
    r"(OVERHEAD|SIZE|BYTES|LEN)")

# THL005: zero-arg constructors of mutable containers.
_MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "deque",
                  "defaultdict", "Counter", "OrderedDict", "Region"}

_SKIP_COMMENT = re.compile(r"#\s*thinclint:\s*skip(?:=([A-Z0-9,\s]+))?")


def _top_package(module: str) -> Optional[str]:
    """``repro.core.server`` -> ``core``; ``repro.cli`` -> None."""
    parts = module.split(".")
    if len(parts) >= 3 and parts[0] == "repro":
        return parts[1]
    return None


def find_suppressions(source: str) -> List[Tuple[int, Optional[List[str]]]]:
    """All ``thinclint: skip`` markers as (line, rules-or-None) pairs."""
    out: List[Tuple[int, Optional[List[str]]]] = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _SKIP_COMMENT.search(line)
        if m:
            rules = None
            if m.group(1):
                rules = [r.strip() for r in m.group(1).split(",") if r.strip()]
            out.append((lineno, rules))
    return out


class _LintVisitor(ast.NodeVisitor):
    def __init__(self, path: str, package: Optional[str], in_protocol: bool,
                 in_display: bool, declared_only: bool = False):
        self.path = path
        self.package = package
        self.in_protocol = in_protocol
        self.in_display = in_display
        self.declared_only = declared_only  # THL007 covers the module
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

    # -- THL005 ---------------------------------------------------------------

    def _check_defaults(self, node) -> None:
        args = node.args
        for default in list(args.defaults) + [d for d in args.kw_defaults
                                              if d is not None]:
            if _is_mutable_default(default):
                self._flag(default, "THL005",
                           "mutable default argument is shared across "
                           "calls; default to None and create inside")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # -- THL006 ---------------------------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._flag(node, "THL006",
                       "bare except catches KeyboardInterrupt/SystemExit; "
                       "name the exceptions this code expects")
        self.generic_visit(node)


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


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and not node.args and not node.keywords:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else "")
        return name in _MUTABLE_CALLS
    return False


def lint_source(source: str, module: str, path: str = "<string>",
                honor_suppressions: bool = True) -> List[Finding]:
    """Lint one module's source; *module* is its dotted import path."""
    tree = ast.parse(source, filename=path)
    package = _top_package(module)
    visitor = _LintVisitor(path, package,
                           in_protocol=(package == "protocol"),
                           in_display=(package == "display"),
                           declared_only=(module == "repro.core.session_unit"))
    visitor.visit(tree)
    findings = visitor.findings
    if honor_suppressions:
        skips = dict(find_suppressions(source))
        findings = [f for f in findings
                    if not (f.line in skips
                            and (skips[f.line] is None
                                 or f.rule in skips[f.line]))]
    return findings


def module_name_for(path: Path) -> str:
    """Dotted module path for a file under a ``repro`` package root.

    ``__init__`` is kept as a path component so a package's own
    __init__ module still maps to the right package.
    """
    parts = list(path.with_suffix("").parts)
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    return ".".join(parts) or "repro"


def lint_path(root) -> Iterator[Finding]:
    """Lint every ``*.py`` file under *root* (a file works too)."""
    root = Path(root)
    files = [root] if root.is_file() else sorted(root.rglob("*.py"))
    for path in files:
        if "__pycache__" in path.parts:
            continue
        source = path.read_text()
        yield from lint_source(source, module_name_for(path), str(path))
