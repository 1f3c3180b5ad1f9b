"""Whole-program fact extraction for the protocol-contract analyzer.

One visit of each parsed module of a ``repro`` package tree (the
module ASTs :func:`repro.analysis.run_all` parses once and also hands
to the linter and the layering checker), collecting everything the
THL2xx rules in :mod:`repro.analysis.contracts` cross-check:

* the spec registry itself — every ``@message`` / ``@wire_type(NAME,
  id, direction, ...)`` class decorator (a row and its class are one
  declaration) — read from the *analyzed tree's* source, not imported,
  so the analyzer works on any checkout (including the mutated copies
  the test suite uses to prove each rule fires); a unit test asserts
  the AST-extracted registry equals the live ``PROTOCOL_SPEC``;
* for each declaration, its field table: each ``name = kind(...)``
  row with the bound it declares, and the fields its ``check=``
  validator reads — exact, nothing inferred (a unit test pins them to
  the live schema);
* every ``StreamParser`` construction site and its ``allowed=`` set;
* every dispatch-site reference to a message class (``isinstance``
  checks and plain references), with its enclosing class/function;
* the ``SessionUnit`` serialization surface: attributes assigned on
  ``self`` anywhere in the class, attributes ``freeze()`` reads, and
  the ``NOT_SERIALIZED`` allowlist with its reason strings;
* every wall-clock API call (``time.time``/``time.monotonic``/
  ``datetime.now``/...), through ``import``/``from``-import aliases
  (the same extraction over ``tests/`` and ``benchmarks/`` is THL205's
  sweep).

Everything here is pure AST — no module from the analyzed tree is ever
imported — so extraction cannot be confused by import-time side
effects and runs identically on broken or mutated trees.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

__all__ = [
    "SpecEntry", "MessageClassFact", "ParserSite",
    "MessageRef", "ClockCall", "SessionSurface", "Facts",
    "extract_facts", "WALL_CLOCK_TIME_APIS", "DECLARATORS",
]

#: Banned attributes of the ``time`` module (``perf_counter`` is *not*
#: banned: measuring the harness's own wall cost is legitimate — only
#: simulated behavior must never read the host clock).
WALL_CLOCK_TIME_APIS = frozenset({
    "time", "monotonic", "time_ns", "monotonic_ns"})

_DATETIME_APIS = frozenset({"now", "utcnow", "today"})

#: Names that look like wire message classes.  References to anything
#: else are not collected (keeps the fact set small and the dispatch
#: rules focused).
_MESSAGE_NAME = re.compile(
    r"^_?[A-Z]\w*(?:Message|Command|Frame)$|^Command$")

#: The schema's declaring decorators and field constructors
#: (``protocol/schema.py``): under one of the former, a class-body
#: ``name = <kind>(...)`` is a payload row.
DECLARATORS = ("message", "wire_type")
_FIELD_KINDS = frozenset({"u8", "u16", "u32", "u64", "f64", "flag",
                          "choice", "rect16", "rgba", "tag", "sized",
                          "rest", "blob"})


@dataclass(frozen=True)
class SpecEntry:
    """One registered wire id: a ``@message(...)`` or
    ``@wire_type(...)`` class decorator."""

    name: str
    type_id: int
    direction: str
    implementation: str  # trailing name of the implementation class
    module: str
    line: int


@dataclass(frozen=True)
class MessageClassFact:
    """A class that owns a wire id through its declaration."""

    name: str
    module: str  # posix path relative to the tree root
    line: int
    type_id: int
    #: The field table in wire order, see :func:`_declared_fields`.
    fields: Tuple[Tuple[str, str, str], ...]


@dataclass(frozen=True)
class ParserSite:
    """One ``StreamParser(...)`` construction."""

    module: str
    line: int
    scope: str    # "Class.method" / "function" / "<module>"
    allowed: str  # set name, "None", "missing", or "<expr>"


@dataclass(frozen=True)
class MessageRef:
    """A reference to a message class name somewhere in the tree."""

    name: str
    module: str
    line: int
    scope_class: str  # innermost enclosing ClassDef ("" at module level)
    scope_func: str
    kind: str  # "isinstance" or "ref"


@dataclass(frozen=True)
class ClockCall:
    """A call into a wall-clock API."""

    api: str  # e.g. "time.time", "datetime.now"
    module: str
    line: int


@dataclass(frozen=True)
class SessionSurface:
    """The SessionUnit serialization surface (THL204's input)."""

    module: str
    assigned: FrozenSet[str]       # self.X = ... anywhere in the class
    frozen_reads: FrozenSet[str]   # self.X read inside freeze()
    not_serialized: Tuple[Tuple[str, str], ...]  # (attr, reason)
    line: int                      # the class statement


@dataclass(frozen=True)
class Facts:
    """Everything one extraction pass learned about a tree."""

    root: Path
    modules: FrozenSet[str]
    spec: Tuple[SpecEntry, ...]
    messages: Tuple[MessageClassFact, ...]
    parsers: Tuple[ParserSite, ...]
    refs: Tuple[MessageRef, ...]
    clock_calls: Tuple[ClockCall, ...]
    session: Optional[SessionSurface]


# --- small AST helpers -------------------------------------------------------

def _trailing_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


# --- @message declarations ---------------------------------------------------

def _declared_bound(call: ast.Call) -> str:
    """The bound a field constructor call declares, rendered exactly
    as the live ``Field.bound`` ("" when the whole wire range is
    legal)."""
    kind = _trailing_name(call.func)
    if kind in ("flag", "choice"):
        return "enum"
    if kind in ("rect16", "rgba"):
        return ""
    kwargs = {kw.arg: ast.literal_eval(kw.value) for kw in call.keywords}
    if kind in ("tag", "sized", "rest"):
        return f"len <= {kwargs['max']}"
    if kind == "blob":
        return "len == " + "*".join(map(str, kwargs["size"]))
    lo, hi = ([ast.literal_eval(a) for a in call.args] + [None, None])[:2]
    if kind == "f64":
        return "finite" if lo is None else f"finite [{lo}, {hi}]"
    top = (1 << int(kind[1:])) - 1
    lo, hi = lo or 0, top if hi is None else hi
    return "" if (lo, hi) == (0, top) else f"[{lo}, {hi}]"


def _registration(node: ast.AST) -> Optional[Tuple[str, int, str]]:
    """``(name, type_id, direction)`` when *node* is a declaring
    decorator, ``message(NAME, id, direction, ...)`` or ``wire_type``
    likewise, with a literal head."""
    if isinstance(node, ast.Call) \
            and _trailing_name(node.func) in DECLARATORS \
            and len(node.args) >= 3 \
            and all(isinstance(a, ast.Constant) for a in node.args[:3]):
        return tuple(a.value for a in node.args[:3])
    return None


def _declared_fields(node: ast.ClassDef, decorator: ast.Call,
                     local_fns: Dict[str, ast.FunctionDef]) \
        -> Tuple[Tuple[str, str, str], ...]:
    """The field table of a declared class: each ``name =
    kind(...)`` row as (field, declared bound, the ``check=``
    validator's name when it reads the field off its argument)."""
    check = next((_trailing_name(kw.value) for kw in decorator.keywords
                  if kw.arg == "check"), None)
    reads = set()
    if check in local_fns and local_fns[check].args.args:
        param = local_fns[check].args.args[0].arg
        reads = {n.attr for n in ast.walk(local_fns[check])
                 if isinstance(n, ast.Attribute)
                 and isinstance(n.value, ast.Name) and n.value.id == param}
    return tuple(
        (stmt.targets[0].id, _declared_bound(stmt.value),
         check if stmt.targets[0].id in reads else "")
        for stmt in node.body
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call)
        and _trailing_name(stmt.value.func) in _FIELD_KINDS
        and isinstance(stmt.targets[0], ast.Name))


# --- per-module visitor ------------------------------------------------------

class _ModuleFacts(ast.NodeVisitor):
    def __init__(self, module: str, local_fns: Dict[str, ast.FunctionDef]):
        self.module = module
        self.local_fns = local_fns
        self.spec: List[SpecEntry] = []
        self.messages: List[MessageClassFact] = []
        self.parsers: List[ParserSite] = []
        self.refs: List[MessageRef] = []
        self.clock_calls: List[ClockCall] = []
        self._class_stack: List[str] = []
        self._func_stack: List[str] = []
        # Wall-clock alias tracking.
        self._time_aliases: set = set()      # names bound to the module
        self._datetime_aliases: set = set()  # names bound to datetime(.datetime)
        self._time_fn_aliases: Dict[str, str] = {}  # local name -> api

    # -- scope bookkeeping --

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self._collect_message_class(node)
        for base in node.bases:
            self._note_ref(base, "ref")
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_func(self, node) -> None:
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    @property
    def _scope(self) -> str:
        parts = ([self._class_stack[-1]] if self._class_stack else []) \
            + self._func_stack
        return ".".join(parts) if parts else "<module>"

    # -- message classes --

    def _collect_message_class(self, node: ast.ClassDef) -> None:
        for dec in node.decorator_list:
            head = _registration(dec)
            if head is not None:
                name, type_id, direction = head
                self.spec.append(SpecEntry(
                    name=name, type_id=type_id, direction=direction,
                    implementation=node.name, module=self.module,
                    line=node.lineno))
                self.messages.append(MessageClassFact(
                    name=node.name, module=self.module, line=node.lineno,
                    type_id=type_id,
                    fields=_declared_fields(node, dec, self.local_fns)))

    # -- imports (for wall-clock aliasing) --

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "time":
                self._time_aliases.add(bound)
            elif alias.name == "datetime":
                self._datetime_aliases.add(bound)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name in WALL_CLOCK_TIME_APIS:
                    self._time_fn_aliases[alias.asname or alias.name] = \
                        f"time.{alias.name}"
        elif node.module == "datetime":
            for alias in node.names:
                if alias.name == "datetime":
                    self._datetime_aliases.add(alias.asname or alias.name)

    # -- calls: parsers, isinstance, wall clock --

    def visit_Call(self, node: ast.Call) -> None:
        callee = _trailing_name(node.func)
        if callee == "StreamParser":
            self.parsers.append(ParserSite(
                module=self.module, line=node.lineno, scope=self._scope,
                allowed=self._allowed_of(node)))
        elif isinstance(node.func, ast.Name) \
                and node.func.id == "isinstance" and len(node.args) == 2:
            spec = node.args[1]
            elts = spec.elts if isinstance(spec, ast.Tuple) else [spec]
            for elt in elts:
                self._note_ref(elt, "isinstance")
        self._check_clock(node)
        self.generic_visit(node)

    def _allowed_of(self, node: ast.Call) -> str:
        expr = None
        for kw in node.keywords:
            if kw.arg == "allowed":
                expr = kw.value
        if expr is None and len(node.args) >= 3:
            expr = node.args[2]
        if expr is None:
            return "missing"
        if isinstance(expr, ast.Constant) and expr.value is None:
            return "None"
        name = _trailing_name(expr)
        return name if name is not None else "<expr>"

    def _check_clock(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            base = func.value
            if func.attr in WALL_CLOCK_TIME_APIS \
                    and isinstance(base, ast.Name) \
                    and base.id in self._time_aliases:
                self._clock(f"time.{func.attr}", node.lineno)
            elif func.attr in _DATETIME_APIS:
                base_name = _trailing_name(base)
                if base_name in self._datetime_aliases \
                        or base_name == "datetime":
                    self._clock(f"datetime.{func.attr}", node.lineno)
        elif isinstance(func, ast.Name) \
                and func.id in self._time_fn_aliases:
            self._clock(self._time_fn_aliases[func.id], node.lineno)

    def _clock(self, api: str, line: int) -> None:
        self.clock_calls.append(ClockCall(api=api, module=self.module,
                                          line=line))

    # -- message-name references --

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._note_ref(node, "ref")

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self._note_ref(node, "ref", recurse=False)
        self.generic_visit(node)

    def _note_ref(self, node: ast.AST, kind: str,
                  recurse: bool = True) -> None:
        name = _trailing_name(node)
        if name is None and recurse:
            for inner in ast.walk(node):
                n = _trailing_name(inner)
                if n is not None and _MESSAGE_NAME.match(n):
                    self._add_ref(n, inner.lineno, kind)
            return
        if name is not None and _MESSAGE_NAME.match(name):
            self._add_ref(name, node.lineno, kind)

    def _add_ref(self, name: str, line: int, kind: str) -> None:
        self.refs.append(MessageRef(
            name=name, module=self.module, line=line,
            scope_class=self._class_stack[-1] if self._class_stack else "",
            scope_func=".".join(self._func_stack), kind=kind))


# --- session extraction -----------------------------------------------------

def _extract_session(tree: ast.Module, module: str) \
        -> Optional[SessionSurface]:
    cls = None
    not_serialized: List[Tuple[str, str]] = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "SessionUnit":
            cls = node
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and node.targets[0].id == "NOT_SERIALIZED" \
                and isinstance(node.value, ast.Dict):
            for key, value in zip(node.value.keys, node.value.values):
                attr = key.value if isinstance(key, ast.Constant) else "?"
                reason = value.value \
                    if isinstance(value, ast.Constant) \
                    and isinstance(value.value, str) else ""
                not_serialized.append((attr, reason))
    if cls is None:
        return None
    assigned: set = set()
    frozen_reads: set = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "self" \
                and isinstance(node.ctx, ast.Store):
            assigned.add(node.attr)
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "freeze":
            for node in ast.walk(stmt):
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.value, ast.Name) \
                        and node.value.id == "self" \
                        and isinstance(node.ctx, ast.Load):
                    frozen_reads.add(node.attr)
    return SessionSurface(module=module, assigned=frozenset(assigned),
                          frozen_reads=frozenset(frozen_reads),
                          not_serialized=tuple(not_serialized),
                          line=cls.lineno)


# --- entry point -------------------------------------------------------------

def extract_facts(root: Path,
                  modules: Iterable[Tuple[str, ast.Module]]) -> Facts:
    """The facts of the tree at *root*, given as ``(path relative to
    root, parsed module)`` pairs."""
    names: List[str] = []
    spec: List[SpecEntry] = []
    messages: List[MessageClassFact] = []
    parsers: List[ParserSite] = []
    refs: List[MessageRef] = []
    clock_calls: List[ClockCall] = []
    session: Optional[SessionSurface] = None

    for rel, tree in modules:
        names.append(rel)
        if rel == "core/session_unit.py":
            session = _extract_session(tree, rel)
        local_fns = {node.name: node for node in tree.body
                     if isinstance(node, ast.FunctionDef)}
        visitor = _ModuleFacts(rel, local_fns)
        visitor.visit(tree)
        spec.extend(visitor.spec)
        messages.extend(visitor.messages)
        parsers.extend(visitor.parsers)
        refs.extend(visitor.refs)
        clock_calls.extend(visitor.clock_calls)

    return Facts(root=Path(root), modules=frozenset(names),
                 spec=tuple(spec), messages=tuple(messages),
                 parsers=tuple(parsers), refs=tuple(refs),
                 clock_calls=tuple(clock_calls), session=session)
