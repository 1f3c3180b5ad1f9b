"""THL2xx: whole-program protocol-contract rules.

The per-file linter (:mod:`repro.analysis.lint`) checks what one
function can prove about itself; the rules here cross-check the facts
:mod:`repro.analysis.facts` extracts from the *whole* tree against the
``PROTOCOL_SPEC`` registry:

========  ====================================================================
THL201    direction conformance — every directional ``StreamParser``
          names a spec-derived accept set, every accept set is
          enforced by at least one parser, and no dispatch scope
          handles a message its side can never legitimately receive
THL202    every registered message has a reachable handler on its
          declared receiving side (no dead wire ids)
THL204    serialization-surface drift — every mutable ``SessionUnit``
          attribute is captured by ``freeze()`` or allowlisted in
          ``NOT_SERIALIZED`` with a reason
THL205    simulated-clock discipline — no wall-clock API outside the
          injected-clock modules
========  ====================================================================

The module also renders the generated conformance matrix
(``docs/CONTRACTS.md``).  A duplicate wire id is not a rule here: the
schema refuses one at import.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from .facts import Facts, MessageRef, ParserSite
from .findings import Finding

__all__ = ["check_contracts", "check_clock_sweep", "render_contract_matrix"]

#: Modules allowed to touch the host clock (the injected-clock layer).
CLOCK_EXEMPT = ("net/clock.py",)

#: Directional parser expectations: module prefix -> role.  A
#: ``StreamParser`` in one of these modules must name the role's
#: accept set; parsers elsewhere (offline trace/bench diagnostics) are
#: exempt and listed as such in the conformance matrix.
PARSER_ROLES: Tuple[Tuple[str, str], ...] = (
    ("core/session_unit.py", "server"),
    ("core/client.py", "client"),
    ("core/miniclient.py", "client"),
    ("cluster/", "fabric"),
    ("fuzz/", "server"),  # the fuzzer mirrors the server's uplink
)

#: Accept-set names each role may cite (the spec alias and the raw
#: direction set it aliases, plus the client's CHECKED-only set).
ROLE_SET_NAMES: Dict[str, Tuple[str, ...]] = {
    "server": ("SERVER_ACCEPTS", "UPLINK_TYPE_IDS"),
    "client": ("CLIENT_ACCEPTS", "DOWNLINK_TYPE_IDS",
               "SEQUENCED_ACCEPTS"),
    "fabric": ("FABRIC_ACCEPTS", "FABRIC_TYPE_IDS"),
}

#: Coverage requirement: the modules whose presence obliges a working
#: parser for the role (the fuzzer is a mirror, not an obligation).
ROLE_COVERAGE: Dict[str, Tuple[str, ...]] = {
    "server": ("core/session_unit.py",),
    "client": ("core/client.py", "core/miniclient.py"),
    "fabric": ("cluster/",),
}

#: Dispatch scopes: (module, class or "*" or "" for module level,
#: side).  Message references *outside* these scopes are not dispatch
#: (translation/prepare code legitimately inspects command classes on
#: the send path) and are never direction-checked.
DISPATCH_SCOPES: Tuple[Tuple[str, str, str], ...] = (
    ("core/server.py", "THINCServer", "server"),
    ("core/session_unit.py", "SessionUnit", "server"),
    ("core/resilience.py", "ResiliencePlane", "server"),
    ("core/resilience.py", "ResilientClient", "client"),
    ("core/resilience.py", "", "prelude"),  # read_prelude
    ("core/client.py", "THINCClient", "client"),
    ("core/miniclient.py", "MiniClient", "client"),
    ("cluster/relay.py", "*", "prelude"),
    ("cluster/coordinator.py", "ShardCoordinator", "fabric"),
)

#: The clear-text connection prelude: the only ids a prelude peek may
#: legitimately inspect, whichever direction it faces.
PRELUDE_NAMES = frozenset({
    "CHECKED", "RECONNECT_REQ", "RECONNECT_ACCEPT", "RECONNECT_DENIED"})


# --- derived views over the facts -------------------------------------------

@dataclass(frozen=True)
class _SpecView:
    """Direction sets and name->id resolution, derived from the spec."""

    side_ids: Dict[str, FrozenSet[int]]  # side -> accepted ids
    impl_to_id: Dict[str, int]
    id_to_impl: Dict[int, str]
    command_ids: FrozenSet[int]          # ids whose impl is a Command subclass


def _spec_view(facts: Facts) -> _SpecView:
    def ids(*directions: str) -> FrozenSet[int]:
        return frozenset(e.type_id for e in facts.spec
                         if e.direction in directions)

    server, client = ids("c->s", "c<->s"), ids("s->c", "c<->s")
    fabric = ids("s->s")
    prelude = frozenset(e.type_id for e in facts.spec
                        if e.name in PRELUDE_NAMES)
    impl_to_id = {e.implementation: e.type_id for e in facts.spec}
    commands_module = {m.name: m.module for m in facts.messages}
    command_ids = frozenset(
        e.type_id for e in facts.spec
        if commands_module.get(e.implementation, "")
        .endswith("protocol/commands.py"))
    return _SpecView(
        side_ids={"server": server, "client": client,
                  "fabric": fabric, "prelude": prelude},
        impl_to_id=impl_to_id,
        id_to_impl={e.type_id: e.implementation for e in facts.spec},
        command_ids=command_ids)


def _resolve_ref(name: str, view: _SpecView) -> Optional[FrozenSet[int]]:
    """The spec ids a referenced class name stands for (None if it is
    not a registered message)."""
    if name == "Command":
        return view.command_ids or None
    type_id = view.impl_to_id.get(name)
    return frozenset({type_id}) if type_id is not None else None


def _dispatch_side(ref: MessageRef) -> Optional[str]:
    for module, cls, side in DISPATCH_SCOPES:
        if ref.module != module:
            continue
        if cls == "*" or ref.scope_class == cls:
            return side
    return None


def _parser_role(site: ParserSite) -> Optional[str]:
    for prefix, role in PARSER_ROLES:
        if site.module == prefix or site.module.startswith(prefix):
            return role
    return None


# --- the rules ---------------------------------------------------------------

def _collector(facts: Facts):
    """A finding list and the ``add(rule, module, line, message)``
    that appends to it, paths resolved against the facts' root."""
    findings: List[Finding] = []

    def add(rule: str, module: str, line: int, message: str) -> None:
        findings.append(Finding(path=str(facts.root / module), line=line,
                                col=0, rule=rule, message=message))

    return findings, add


def check_contracts(facts: Facts) -> List[Finding]:
    """Run the THL2xx rules over the package tree's facts."""
    findings, add = _collector(facts)
    view = _spec_view(facts)
    _thl201(facts, view, add)
    _thl202(facts, view, add)
    _thl204(facts, add)
    _thl205(facts, add, exempt=CLOCK_EXEMPT)
    return sorted(findings)


def check_clock_sweep(facts: Facts) -> List[Finding]:
    """THL205 over a tree outside the package (``tests/``,
    ``benchmarks/``), where no module is exempt."""
    findings, add = _collector(facts)
    _thl205(facts, add)
    return sorted(findings)


def _thl201(facts: Facts, view: _SpecView, add) -> None:
    # (a) every directional parser names its role's accept set.
    for site in facts.parsers:
        role = _parser_role(site)
        if role is None:
            continue
        expected = ROLE_SET_NAMES[role]
        if site.allowed in expected:
            continue
        if site.allowed in ("missing", "None"):
            how = "no allowed-id set"
        elif site.allowed == "<expr>":
            how = "an allowed set that is not a spec export " \
                  "(widening expression?)"
        else:
            how = f"allowed={site.allowed}"
        add("THL201", site.module, site.line,
            f"{site.scope} builds a {role}-link StreamParser with "
            f"{how}; expected allowed={expected[0]} from protocol.spec")
    # (b) every accept set is enforced by at least one parser.
    for role, prefixes in ROLE_COVERAGE.items():
        present = any(m == p or m.startswith(p)
                      for m in facts.modules for p in prefixes)
        if not present or not view.side_ids[role]:
            continue
        sites = [s for s in facts.parsers
                 if any(s.module == p or s.module.startswith(p)
                        for p in prefixes)]
        if not sites:
            ids = ", ".join(map(str, sorted(view.side_ids[role])))
            add("THL201", prefixes[0], 1,
                f"no StreamParser on the {role} link enforces "
                f"{ROLE_SET_NAMES[role][0]}; ids {ids} parse "
                f"unrestricted there")
    # (c) dispatch scopes only handle ids their side can receive.
    flagged = set()
    for ref in facts.refs:
        if ref.kind != "isinstance":
            continue
        side = _dispatch_side(ref)
        if side is None:
            continue
        ids = _resolve_ref(ref.name, view)
        if ids is None or ids <= view.side_ids[side]:
            continue
        key = (ref.module, ref.scope_class, ref.name)
        if key in flagged:
            continue
        flagged.add(key)
        foreign = sorted(ids - view.side_ids[side])
        add("THL201", ref.module, ref.line,
            f"{ref.scope_class or '<module>'}.{ref.scope_func or '?'} "
            f"dispatches on {ref.name} (id(s) "
            f"{', '.join(map(str, foreign))}) but is a {side}-side "
            f"scope that can never legitimately receive it")


def _thl202(facts: Facts, view: _SpecView, add) -> None:
    side_present = {
        side: any(module in facts.modules
                  for module, _cls, s in DISPATCH_SCOPES if s == side)
        for side in ("server", "client", "fabric")
    }
    for entry in facts.spec:
        sides = [s for s in ("server", "client", "fabric")
                 if entry.type_id in view.side_ids[s]]
        for side in sides:
            if not side_present.get(side, False):
                continue
            if _handled(entry.implementation, entry.type_id, side,
                        facts, view):
                continue
            add("THL202", entry.module, entry.line,
                f"{entry.name} (id {entry.type_id}, "
                f"{entry.direction}) has no reachable handler on its "
                f"{side} side: dead wire id")


def _handled(impl: str, type_id: int, side: str, facts: Facts,
             view: _SpecView) -> bool:
    for ref in facts.refs:
        if _dispatch_side(ref) != side:
            continue
        if side != "fabric" and ref.kind != "isinstance":
            continue  # fabric consumes via construction + log adoption
        ids = _resolve_ref(ref.name, view)
        if ids is not None and type_id in ids:
            return True
    return False


def _thl204(facts: Facts, add) -> None:
    surface = facts.session
    if surface is None:
        return
    allow = dict(surface.not_serialized)
    for attr in sorted(surface.assigned
                       - surface.frozen_reads - set(allow)):
        add("THL204", surface.module, surface.line,
            f"SessionUnit.{attr} is mutable session state but is "
            f"neither captured by freeze() nor allowlisted in "
            f"NOT_SERIALIZED")
    for attr, reason in surface.not_serialized:
        if attr in surface.frozen_reads:
            add("THL204", surface.module, surface.line,
                f"NOT_SERIALIZED lists {attr!r}, but freeze() captures "
                f"it — stale allowlist entry")
        elif attr not in surface.assigned:
            add("THL204", surface.module, surface.line,
                f"NOT_SERIALIZED lists {attr!r}, which SessionUnit "
                f"never assigns — stale allowlist entry")
        elif not reason:
            add("THL204", surface.module, surface.line,
                f"NOT_SERIALIZED entry {attr!r} has no reason string")


def _thl205(facts: Facts, add, exempt: Tuple[str, ...] = ()) -> None:
    for call in facts.clock_calls:
        if any(call.module == e or call.module.startswith(e)
               for e in exempt):
            continue
        add("THL205", call.module, call.line,
            f"wall-clock call {call.api}() outside the injected-clock "
            f"modules; simulated time comes from the event loop")


# --- the conformance matrix --------------------------------------------------

def render_contract_matrix(facts: Facts) -> str:
    """``docs/CONTRACTS.md``: id × direction × parsers-that-accept ×
    handlers × bound-fields, generated from the extracted facts."""
    view = _spec_view(facts)
    set_ids = {name: view.side_ids[role]
               for role, names in ROLE_SET_NAMES.items() for name in names}
    set_ids["SEQUENCED_ACCEPTS"] = frozenset(
        e.type_id for e in facts.spec if e.name == "CHECKED")

    directional: List[Tuple[str, ParserSite]] = []
    diagnostic: List[ParserSite] = []
    for site in facts.parsers:
        if site.allowed in set_ids:
            directional.append((site.allowed, site))
        elif _parser_role(site) is None:
            diagnostic.append(site)

    def parsers_for(type_id: int) -> str:
        labels = sorted({f"`{site.module}::{site.scope}`"
                         for name, site in directional
                         if type_id in set_ids[name]})
        return ", ".join(labels) if labels else "—"

    def handlers_for(type_id: int) -> str:
        labels = set()
        impl = view.id_to_impl.get(type_id)
        for ref in facts.refs:
            side = _dispatch_side(ref)
            if side is None:
                continue
            if side != "fabric" and ref.kind != "isinstance":
                continue
            ids = _resolve_ref(ref.name, view)
            if ids is None or type_id not in ids:
                continue
            suffix = " (Command fan-out)" if ref.name != impl else ""
            scope = ref.scope_class or ref.scope_func or "<module>"
            labels.add(f"`{ref.module}::{scope}`{suffix}")
        return ", ".join(sorted(labels)) if labels else "—"

    def bounds_for(type_id: int) -> str:
        impl = view.id_to_impl.get(type_id)
        fact = next((m for m in facts.messages if m.name == impl), None)
        if fact is None or not fact.fields:
            return "—"
        return ", ".join(
            f"{name}* {' & '.join(filter(None, checks))}"
            if any(checks) else name
            for name, *checks in fact.fields)

    lines = [
        "# THINC protocol conformance matrix",
        "",
        "Generated by `python -m repro.analysis --matrix-out` (`make",
        "contracts-doc`) from the facts in `repro.analysis.facts` —",
        "**do not edit**; `make analyze` fails when this file is stale.",
        "For every registered wire id: who parses it, who handles it, and",
        "which payload fields are bounds-checked (`*`).  Every id is a",
        "declaration (`@message`, or `@wire_type` for the display",
        "commands): the column is read off it — the rows in wire order",
        "with the bound each declares and, where the `check=` validator",
        "reads the field, the validator's name.",
        "",
        "| id | message | dir | parsers that accept it | handlers "
        "| decode fields |",
        "|---|---|---|---|---|---|",
    ]
    for entry in sorted(facts.spec, key=lambda e: e.type_id):
        lines.append(
            f"| {entry.type_id} | `{entry.name}` | {entry.direction} "
            f"| {parsers_for(entry.type_id)} "
            f"| {handlers_for(entry.type_id)} "
            f"| {bounds_for(entry.type_id)} |")
    lines += [
        "",
        "Ids 32–35 are `s->s` only: no client-facing parser set",
        "contains them, so they die at the frame header on any",
        "client link (THL201).",
        "",
        "## Diagnostic parsers (exempt from THL201)",
        "",
        "Offline tooling parses captured streams of either direction:",
        "",
    ]
    for site in sorted(diagnostic, key=lambda s: (s.module, s.line)):
        lines.append(f"* `{site.module}::{site.scope}`")
    if not diagnostic:
        lines.append("* (none)")
    lines += [
        "",
        "## Clock-exempt modules (THL205)",
        "",
    ]
    for module in CLOCK_EXEMPT:
        lines.append(f"* `{module}` — the injected-clock layer itself")
    lines.append("")
    return "\n".join(lines)
