"""Whole-program fact extraction for the protocol-contract analyzer.

One AST walk over a ``repro`` package tree, collecting everything the
THL2xx rules in :mod:`repro.analysis.contracts` cross-check:

* the spec registry itself — every ``@message(NAME, id, direction,
  ...)`` class decorator (the control messages: a row and its class
  are one declaration) plus the ``MessageSpec(...)`` literals in
  ``protocol/spec.py`` (the display commands) — read from the
  *analyzed tree's* source, not imported, so the analyzer works on any
  checkout (including the mutated copies the test suite uses to prove
  each rule fires); a unit test asserts the AST-extracted registry
  equals the live ``PROTOCOL_SPEC``;
* for a declared message, its field table: each ``name = kind(...)``
  row with the bound it declares, and the fields its ``check=``
  validator reads — exact, nothing inferred (a unit test pins them to
  the live schema);
* every hand-written decoder (``decode`` of a display command, the
  CHECKED ``decode_payload``) and a decode analysis of it: which
  fields it unpacks, which flow through a ``WireLimits`` comparison /
  clamp / guard helper (anything that raises a ``ProtocolError`` or
  ``ValueError``), and which size a slice — including through one
  level of local helper-function calls;
* every ``StreamParser`` construction site and its ``allowed=`` set;
* every dispatch-site reference to a message class (``isinstance``
  checks and plain references), with its enclosing class/function;
* the ``SessionUnit`` serialization surface: attributes assigned on
  ``self`` anywhere in the class, attributes ``freeze()`` reads, and
  the ``NOT_SERIALIZED`` allowlist with its reason strings;
* every wall-clock API call (``time.time``/``time.monotonic``/
  ``datetime.now``/...), through ``import``/``from``-import aliases.

Everything here is pure AST — no module from the analyzed tree is ever
imported — so extraction cannot be confused by import-time side
effects and runs identically on broken or mutated trees.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Tuple

__all__ = [
    "SpecEntry", "DecodeFact", "MessageClassFact", "ParserSite",
    "MessageRef", "ClockCall", "SessionSurface", "Facts",
    "extract_facts", "collect_clock_calls",
    "PROTOCOL_ERROR_NAMES", "GUARD_RAISE_NAMES", "WALL_CLOCK_TIME_APIS",
]

#: The typed decode-failure family; a helper that raises one of these
#: counts as a guard (THL203's interprocedural step).
PROTOCOL_ERROR_NAMES = frozenset({
    "ProtocolError", "ChecksumError", "TruncatedPayloadError",
    "FrameTooLargeError", "FieldRangeError",
})

#: Raises that qualify a compare-then-raise as a decode guard.  The
#: command layer deliberately raises plain ``ValueError`` (it must not
#: import the wire module; the frame dispatcher re-raises command
#: decode failures as ``ProtocolError``), and ``ProtocolError`` itself
#: subclasses ``ValueError`` — so both families have the same teeth.
GUARD_RAISE_NAMES = PROTOCOL_ERROR_NAMES | frozenset({"ValueError"})

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

#: The schema's field constructors (``protocol/schema.py``): under
#: ``@message``, a class-body ``name = <kind>(...)`` is a payload field.
_FIELD_KINDS = frozenset({"u8", "u16", "u32", "u64", "f64", "flag",
                          "choice", "rect16", "tag", "rest", "blob"})


@dataclass(frozen=True)
class SpecEntry:
    """One registered wire id: a ``@message(...)`` decorator or a
    ``MessageSpec(...)`` literal in ``protocol/spec.py``."""

    name: str
    type_id: int
    direction: str
    implementation: str  # trailing name of the implementation class
    module: str
    line: int


@dataclass(frozen=True)
class DecodeFact:
    """What a ``decode_payload`` does with its payload bytes."""

    fields: FrozenSet[str]          # names bound from struct unpacks
    guarded: FrozenSet[str]         # fields that hit a guard event
    size_uses: Tuple[Tuple[str, int], ...]  # (field, line) inside a slice


@dataclass(frozen=True)
class MessageClassFact:
    """A class that owns a wire id: ``@message``-declared, or carrying
    an integer ``type_id`` class attribute (display commands)."""

    name: str
    module: str  # posix path relative to the tree root
    line: int
    type_id: int
    decode: Optional[DecodeFact]  # its hand-written decoder, if any
    #: ``@message``-declared classes only (None otherwise): the field
    #: table in wire order, see :func:`_declared_fields`.
    fields: Optional[Tuple[Tuple[str, str, str], ...]] = None


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


def _names_in(node: ast.AST) -> FrozenSet[str]:
    return frozenset(n.id for n in ast.walk(node)
                     if isinstance(n, ast.Name))


def _mentions_limits(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Name) and n.id == "LIMITS"
               for n in ast.walk(node))


def _iter_py(root: Path):
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        yield path


# --- decode_payload analysis -------------------------------------------------

def _analyze_decode(fn: ast.FunctionDef,
                    guard_names: FrozenSet[str],
                    local_fns: Dict[str, ast.FunctionDef],
                    depth: int = 0) -> DecodeFact:
    """Field/guard/size-use analysis of one function body.

    ``depth`` bounds the interprocedural step: a ``decode_payload``
    calling a module-level helper merges that helper's analysis once
    (one level, per the THL203 contract).
    """
    fields: set = set()
    guarded: set = set()
    size_uses: List[Tuple[str, int]] = []
    called: List[str] = []

    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            callee = _trailing_name(node.value.func)
            if callee in ("unpack", "unpack_from"):
                for target in node.targets:
                    elts = target.elts if isinstance(
                        target, ast.Tuple) else [target]
                    for elt in elts:
                        if isinstance(elt, ast.Name):
                            fields.add(elt.id)
        elif isinstance(node, ast.Compare):
            if _mentions_limits(node):
                guarded |= _names_in(node)
        elif isinstance(node, ast.If) and isinstance(node.test, ast.Compare):
            # ``if kind_id >= len(TABLE): raise FieldRangeError(...)``
            # is a range check with teeth even without mentioning
            # LIMITS: the compared field cannot reach a use unchecked.
            if any(isinstance(inner, ast.Raise) and inner.exc is not None
                   and _trailing_name(inner.exc.func
                                      if isinstance(inner.exc, ast.Call)
                                      else inner.exc) in GUARD_RAISE_NAMES
                   for stmt in node.body for inner in ast.walk(stmt)):
                guarded |= _names_in(node.test)
        elif isinstance(node, ast.Call):
            callee = _trailing_name(node.func)
            if callee in guard_names:
                for arg in node.args:
                    guarded |= _names_in(arg)
            elif callee in ("min", "max") and _mentions_limits(node):
                for arg in node.args:
                    guarded |= _names_in(arg)  # clamp counts as a guard
            elif (isinstance(node.func, ast.Name)
                  and node.func.id in local_fns and depth == 0):
                called.append(node.func.id)
        elif isinstance(node, ast.Subscript):
            for name in _names_in(node.slice):
                size_uses.append((name, node.lineno))

    for callee in called:
        sub = _analyze_decode(local_fns[callee], guard_names,
                              local_fns, depth=1)
        fields |= sub.fields
        guarded |= sub.guarded
        size_uses.extend(sub.size_uses)

    return DecodeFact(fields=frozenset(fields),
                      guarded=frozenset(guarded),
                      size_uses=tuple(size_uses))


def _guard_helper_names(tree: ast.Module) -> FrozenSet[str]:
    """Module-level functions that qualify as decode guards: they
    compare against ``LIMITS`` or raise a typed ``ProtocolError``."""
    names = set()
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        for inner in ast.walk(node):
            if isinstance(inner, ast.Compare) and _mentions_limits(inner):
                names.add(node.name)
                break
            if isinstance(inner, ast.Raise) and inner.exc is not None:
                exc = inner.exc
                target = exc.func if isinstance(exc, ast.Call) else exc
                if _trailing_name(target) in GUARD_RAISE_NAMES:
                    names.add(node.name)
                    break
    return frozenset(names)


# --- @message declarations ---------------------------------------------------

def _declared_bound(call: ast.Call) -> str:
    """The bound a field constructor call declares, rendered exactly
    as the live ``Field.bound`` ("" when the whole wire range is
    legal)."""
    kind = _trailing_name(call.func)
    if kind in ("flag", "choice"):
        return "enum"
    if kind == "rect16":
        return ""
    kwargs = {kw.arg: ast.literal_eval(kw.value) for kw in call.keywords}
    if kind in ("tag", "rest"):
        return f"len <= {kwargs['max']}"
    if kind == "blob":
        return "len == " + "*".join(map(str, kwargs["size"]))
    lo, hi = ([ast.literal_eval(a) for a in call.args] + [None, None])[:2]
    if kind == "f64":
        return "finite" if lo is None else f"finite [{lo}, {hi}]"
    top = (1 << int(kind[1:])) - 1
    lo, hi = lo or 0, top if hi is None else hi
    return "" if (lo, hi) == (0, top) else f"[{lo}, {hi}]"


def _registration(node: ast.AST, callee: str) \
        -> Optional[Tuple[str, int, str]]:
    """``(name, type_id, direction)`` when *node* is a
    ``callee(NAME, id, direction, ...)`` call with a literal head —
    a ``@message`` decorator or a ``MessageSpec`` row."""
    if isinstance(node, ast.Call) and _trailing_name(node.func) == callee \
            and len(node.args) >= 3 \
            and all(isinstance(a, ast.Constant) for a in node.args[:3]):
        return tuple(a.value for a in node.args[:3])
    return None


def _declared_fields(node: ast.ClassDef, decorator: ast.Call,
                     local_fns: Dict[str, ast.FunctionDef]) \
        -> Tuple[Tuple[str, str, str], ...]:
    """The field table of a ``@message`` class: each ``name =
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
    def __init__(self, module: str,
                 guard_names: FrozenSet[str] = frozenset(),
                 local_fns: Optional[Dict[str, ast.FunctionDef]] = None):
        self.module = module
        self.guard_names = guard_names
        self.local_fns = local_fns or {}
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
        type_id, fields, decode = None, None, None
        for dec in node.decorator_list:
            head = _registration(dec, "message")
            if head is not None:
                type_id = head[1]
                self._register(head, node.name, node.lineno)
                fields = _declared_fields(node, dec, self.local_fns)
        for stmt in node.body:
            # ``type_id = 3`` or ``type_id: int = 3`` (display commands).
            target = stmt.targets[0] if isinstance(stmt, ast.Assign) \
                else getattr(stmt, "target", None)
            if isinstance(target, ast.Name) and target.id == "type_id" \
                    and isinstance(stmt.value, ast.Constant) \
                    and type(stmt.value.value) is int:
                type_id = stmt.value.value
            # Hand-written decoders: a command's ``decode`` classmethod
            # or (CHECKED) a ``decode_payload``.  Both are subject to
            # the same bounded-decode contract.
            elif isinstance(stmt, ast.FunctionDef) \
                    and stmt.name in ("decode_payload", "decode"):
                decode = _analyze_decode(stmt, self.guard_names,
                                         self.local_fns)
        if type_id is not None:
            self.messages.append(MessageClassFact(
                name=node.name, module=self.module, line=node.lineno,
                type_id=type_id, decode=decode, fields=fields))

    def _register(self, head: Tuple[str, int, str], implementation: str,
                  line: int) -> None:
        name, type_id, direction = head
        self.spec.append(SpecEntry(
            name=name, type_id=type_id, direction=direction,
            implementation=implementation, module=self.module, line=line))

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
        head = _registration(node, "MessageSpec")
        if head is not None and len(node.args) >= 4:
            self._register(head, _trailing_name(node.args[-1]) or "?",
                           node.lineno)
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


# --- entry points ------------------------------------------------------------

def extract_facts(root: Path) -> Facts:
    """One extraction pass over a ``repro`` package tree at *root*."""
    root = Path(root)
    modules: List[str] = []
    spec: List[SpecEntry] = []
    messages: List[MessageClassFact] = []
    parsers: List[ParserSite] = []
    refs: List[MessageRef] = []
    clock_calls: List[ClockCall] = []
    session: Optional[SessionSurface] = None

    for path in _iter_py(root):
        rel = path.relative_to(root).as_posix()
        modules.append(rel)
        tree = ast.parse(path.read_text(), filename=str(path))
        if rel == "core/session_unit.py":
            session = _extract_session(tree, rel)
        local_fns = {node.name: node for node in tree.body
                     if isinstance(node, ast.FunctionDef)}
        visitor = _ModuleFacts(rel, _guard_helper_names(tree), local_fns)
        visitor.visit(tree)
        spec.extend(visitor.spec)
        messages.extend(visitor.messages)
        parsers.extend(visitor.parsers)
        refs.extend(visitor.refs)
        clock_calls.extend(visitor.clock_calls)

    return Facts(root=root, modules=frozenset(modules), spec=tuple(spec),
                 messages=tuple(messages), parsers=tuple(parsers),
                 refs=tuple(refs), clock_calls=tuple(clock_calls),
                 session=session)


def collect_clock_calls(root: Path) -> Tuple[ClockCall, ...]:
    """Wall-clock calls in an arbitrary tree (the ``tests/`` and
    ``benchmarks/`` THL205 sweep; no exemptions apply there)."""
    root = Path(root)
    calls: List[ClockCall] = []
    for path in _iter_py(root):
        rel = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        visitor = _ModuleFacts(rel)
        visitor.visit(tree)
        calls.extend(visitor.clock_calls)
    return tuple(calls)
