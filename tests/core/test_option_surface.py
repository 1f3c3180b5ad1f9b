"""Tripwire: the public option surface, pinned.

Every knob here is something a caller can set and a reader must
understand.  A PR that adds (or removes) one has to edit this file, so
the change shows up in a test diff and gets argued for — the ROADMAP's
"a PR that adds a concept must delete one" made mechanical.  Beyond the
pins, every defaulted parameter in ``src/repro`` must be set by some
call site (``test_every_default_is_overridden_somewhere``).
"""

import ast
import gc
import inspect
from dataclasses import fields
from pathlib import Path

from repro.core import Budget, ServerBudget, THINCServer
from repro.core.pipeline import PreparePlane
from repro.core.qos import QosConfig
from repro.core.resilience import ResilienceConfig, ResilientClient
from repro.net import EventLoop


def test_server_constructor_parameters():
    # The ablation switches are held by the repro.bench.claims rows that
    # need them: compress_raw by ablation.compression-*,
    # offscreen_awareness by ablation.offscreen-*, scheduler_factory by
    # ablation.srsf-*.
    params = list(inspect.signature(THINCServer.__init__).parameters)
    assert params == [
        "self", "loop", "width", "height", "compress_raw",
        "offscreen_awareness", "scheduler_factory", "encrypt_key",
        "resilience", "budget", "server_budget", "adaptive_encoding",
        "qos"]
    # No class-level tunables hiding beside the constructor.
    assert [name for name, value in vars(THINCServer).items()
            if not name.startswith("_")
            and isinstance(value, (int, float))] == []


def test_qos_config_fields():
    assert [f.name for f in fields(QosConfig)] == [
        "degrade_polls", "recover_polls", "recover_jitter",
        "fps_divisor", "scale_shift", "qstep", "seed"]


def test_resilience_config_fields():
    assert [f.name for f in fields(ResilienceConfig)] == [
        "heartbeat_interval", "liveness_timeout", "check_interval",
        "detach_window", "backoff_base", "backoff_jitter", "seed",
        "token_start", "token_stride"]


def test_resilient_client_constructor_parameters():
    assert list(inspect.signature(ResilientClient.__init__).parameters) == [
        "self", "loop", "dial", "config", "viewport", "decrypt_key", "seed"]


def test_budget_fields():
    assert [f.name for f in fields(Budget)] == [
        "degrade_queue_bytes", "max_queue_bytes", "evict_queue_bytes",
        "coalesce_cooldown", "max_audio_backlog_bytes",
        "max_control_backlog_bytes", "max_journal_bytes",
        "uplink_msgs_per_sec", "uplink_burst", "max_uplink_dropped",
        "max_uplink_errors"]


def test_server_budget_fields():
    assert [f.name for f in fields(ServerBudget)] == [
        "max_sessions", "max_total_queue_bytes", "retry_after"]


def test_prepare_plane_settable_hooks():
    # The server wires policy, posture probe and read-back the same way
    # every time; nothing is wired afterwards.
    plane = THINCServer(EventLoop(), 8, 8, adaptive_encoding=True).plane
    assert list(inspect.signature(PreparePlane.__init__).parameters) == [
        "self", "loop", "cost_model", "policy", "posture_of", "read_back"]
    assert [name for name, value in vars(plane).items()
            if value is None and not name.startswith("_")] == []


# -- every default is overridden somewhere -------------------------------

ROOT = Path(__file__).resolve().parents[2]
SCANNED = ("src", "tests", "examples", "benchmarks")

#: ``owner.fn(param)`` -> why the parameter stays although the scan finds
#: no call site that sets it.  At most eight entries.
ALLOWED: dict = {}


def _name(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


#: Node class -> the fields that can hold a call; ``ctx`` never does.
_FIELDS = {type(None): (), str: (), ast.Name: (), ast.Constant: ()}


def scan_unset_defaults(root=ROOT):
    """``file:line owner.fn(param)`` for each defaulted parameter of a
    ``src/repro`` function or method that no call site in *root*'s
    scanned trees passes, by keyword or by position, or reaches with a
    ``*``/``**`` splat.

    A call matches by name: ``f(…)`` and ``x.f(…)`` reach every ``f``,
    ``C(…)`` reaches ``C.__init__`` (or the nearest base's), and
    ``cls(…)``, ``type(self)(…)`` and ``super().__init__(…)`` reach the
    enclosing class or its bases.  ``TABLE[k](…)`` reaches each callable
    named in the dict literal bound to ``TABLE``.  A ``**kw`` that is the
    enclosing function's own ``**`` parameter carries the keywords that
    function's callers pass (to every dispatch-table entry, when the
    callee cannot be named); any other ``**`` carries every name used as
    a keyword or a constant dict key.  A ``*args`` forwarded from the
    enclosing function reaches every position after it; any other ``*``
    splat reaches none.  Functions nested in functions are not scanned,
    and dataclass and ``NamedTuple`` fields are records, not calls: the
    config ones are pinned field by field above.
    """
    defs = {}      # ("init", class) | ("fn", name) -> [[(param, pos, where)]]
    bases = {}     # class -> base names
    tables = {}    # dispatch-table name -> callable names
    calls = []     # (callee keys, call, forwarded-from key, forwards *args)
    keys_used = set()

    def callee(call, cls):
        f = call.func
        if isinstance(f, ast.Name):
            if f.id == "cls" and cls:
                return [("init", cls)]
            return [("init", f.id), ("fn", f.id)]
        if isinstance(f, ast.Attribute):
            if f.attr == "__init__" and isinstance(f.value, ast.Call) \
                    and _name(f.value.func) == "super" and cls:
                return [("init", b) for b in bases.get(cls, ())]
            return [("init", f.attr), ("fn", f.attr)]
        if isinstance(f, ast.Call) and _name(f.func) == "type" and cls:
            return [("init", cls)]
        if isinstance(f, ast.Subscript) and _name(f.value):
            return [("table", _name(f.value))]
        return []

    def walk(node, cls, key=None, args=None):
        kwarg = args and args.kwarg and args.kwarg.arg
        vararg = args and args.vararg and args.vararg.arg
        stack = [node]
        while stack:     # ast.walk, minus a generator and the ctx leaves
            n = stack.pop()
            kind = n.__class__
            if kind is ast.Call:
                keys_used.update(k.arg for k in n.keywords)
                fwd = kwarg and any(k.arg is None and _name(k.value) == kwarg
                                    for k in n.keywords)
                star = any(a.__class__ is ast.Starred
                           and _name(a.value) == vararg for a in n.args)
                calls.append((callee(n, cls), n, fwd and key, star))
            elif kind is ast.Dict:
                keys_used.update(k.value for k in n.keys
                                 if k.__class__ is ast.Constant)
            names = _FIELDS.get(kind)
            if names is None:
                names = _FIELDS[kind] = tuple(
                    f for f in kind._fields if f != "ctx")
            for f in names:
                value = getattr(n, f)
                if value.__class__ is list:
                    stack.extend(value)
                elif isinstance(value, ast.AST):
                    stack.append(value)

    def define(path, node, cls):
        if isinstance(node, ast.ClassDef):
            bases[node.name] = [_name(b) for b in node.bases]
            if "NamedTuple" in bases[node.name] or any(
                    _name(getattr(d, "func", d)) == "dataclass"
                    for d in node.decorator_list):
                defs.setdefault(("init", node.name), [])
            for stmt in node.body:
                define(path, stmt, node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            key = ("init", cls) if cls and node.name == "__init__" \
                else ("fn", node.name)
            if path:
                a = node.args
                pos = a.posonlyargs + a.args
                skip = cls is not None and "staticmethod" not in {
                    _name(d) for d in node.decorator_list}
                first = len(pos) - len(a.defaults)
                where = f"{path}:%d {cls or Path(path).stem}.{node.name}(%s)"
                params = [(arg.arg, i - skip, where % (arg.lineno, arg.arg))
                          for i, arg in enumerate(pos) if i >= first]
                params += [(arg.arg, None, where % (arg.lineno, arg.arg))
                           for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                           if d is not None]
                defs.setdefault(key, []).append(params)
            walk(node, cls, key, node.args)
        else:
            if path and isinstance(node, (ast.Assign, ast.AnnAssign)) \
                    and isinstance(node.value, ast.Dict):
                for target in node.targets \
                        if isinstance(node, ast.Assign) else [node.target]:
                    tables[_name(target)] = [_name(v) for v in
                                             node.value.values]
            walk(node, cls)

    gc.disable()   # ~250 000 fresh nodes: collections only slow parsing
    try:
        for top in SCANNED:
            for path in sorted((root / top).rglob("*.py")):
                rel = path.relative_to(root).as_posix() \
                    if top == "src" else None
                for node in ast.parse(path.read_bytes()).body:
                    define(rel, node, None)
    finally:
        gc.enable()

    def resolve(key, seen=()):
        if key[0] == "table":
            return [r for name in tables.get(key[1], ())
                    for k in (("init", name), ("fn", name))
                    for r in resolve(k)]
        if key in defs or key[0] == "fn":
            return defs.get(key, [])
        return [r for b in bases.get(key[1], ()) if b not in seen
                for r in resolve(("init", b), seen + (key[1],))]

    memo = {}

    def resolved(key):
        if key not in memo:
            memo[key] = resolve(key)
        return memo[key]

    def targets(keys, fwd):
        found = [k for k in keys if resolved(k)]
        return found if found or not fwd else [
            ("table", name) for name in tables]

    # The keywords each callable receives, through **kwargs forwarding too.
    flows = {}
    for keys, call, _, _ in calls:
        for key in keys:
            flows.setdefault(key, set()).update(
                k.arg for k in call.keywords if k.arg)
    forwarding = [(keys, fwd) for keys, _, fwd, _ in calls if fwd]
    changed = True
    while changed:
        changed = False
        for keys, fwd in forwarding:
            for key in targets(keys, fwd):
                extra = flows.get(fwd, set()) - flows.get(key, set())
                if extra:
                    flows.setdefault(key, set()).update(extra)
                    changed = True

    passed = set()
    for keys, call, fwd, star in calls:
        found = targets(keys, fwd)
        if not found:
            continue
        names = {k.arg for k in call.keywords}
        npos = next((i for i, a in enumerate(call.args)
                     if a.__class__ is ast.Starred), len(call.args))
        for key in found:
            spread = flows.get(key, ()) if fwd else keys_used
            for params in resolved(key):
                stop = min([i for p, i, _ in params
                            if p in names and i is not None] + [1 << 30])
                for p, i, where in params:
                    if p in names or (i is not None and (
                            i < npos or star and i < stop)) \
                            or None in names and p in spread:
                        passed.add(where)
    return sorted(where for recs in defs.values() for params in recs
                  for _, _, where in params if where not in passed)


def test_every_default_is_overridden_somewhere():
    # A default that no caller overrides is a constant with a parameter's
    # cost: each one is a configuration nobody runs.  Make it a constant,
    # delete the branches only another value could reach, or argue for
    # it in ALLOWED.
    assert len(ALLOWED) <= 8
    hits = [h for h in scan_unset_defaults()
            if h.split(" ", 1)[1] not in ALLOWED]
    assert hits == [], "defaults no call site overrides:\n" + "\n".join(hits)



def test_scan_resolves_calls_by_name(tmp_path):
    # a reaches Base through Unit's **kw, b is passed to it directly,
    # greet through cls(…), y by position through the dispatch table.
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "m.py").write_text(
        "class Base:\n"
        "    def __init__(self, a=1, b=2, c=3):\n"
        "        pass\n"
        "class Unit(Base):\n"
        "    def __init__(self, greet=True, **kw):\n"
        "        super().__init__(b=0, **kw)\n"
        "    @classmethod\n"
        "    def thaw(cls):\n"
        "        return cls(greet=False)\n"
        "def f(x, y=1, z=2):\n"
        "    return Unit(a=0)\n"
        "TABLE = {'f': f}\n"
        "def g(k, **params):\n"
        "    return TABLE[k](0, 1, **params)\n")
    assert scan_unset_defaults(tmp_path) == [
        "src/repro/m.py:10 m.f(z)", "src/repro/m.py:2 Base.__init__(c)"]
