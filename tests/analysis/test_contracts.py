"""The THL2xx protocol-contract analyzer, proven on two trees.

A synthetic fixture tree exercises every rule with a positive (the
mutation the rule must flag) and a negative (the idiomatic fix it must
pass); copytree mutations of the *real* ``src/repro`` then prove each
rule fires on the production sources — deleting one handler, widening
one parser set, adding one unserialized SessionUnit attribute each
produce exactly the expected finding.  The field tables the analyzer
reads off the ``@message`` / ``@wire_type`` declarations are pinned to
the live schema.  The baseline lifecycle and the CLI exit codes are
covered at the bottom.
"""

import json
import shutil
import textwrap
from pathlib import Path

import repro
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.contracts import (Baseline, apply_baseline,
                                      check_clock_sweep, check_contracts,
                                      finding_key, load_baseline,
                                      render_contract_matrix)
from repro.analysis.facts import extract_facts
from repro.protocol.schema import REGISTRY
from repro.protocol.spec import PROTOCOL_SPEC

SRC = Path(repro.__file__).resolve().parent
REPO = SRC.parent.parent


# --- the synthetic fixture tree ----------------------------------------------

# Every wire id is a declaration (row and class in one): ``@message``
# for control messages, ``@wire_type`` for display commands; spec.py
# derives its rows from them.
SPEC_SRC = """
from . import wire

PROTOCOL_SPEC = derived_rows(wire)
SERVER_ACCEPTS = UPLINK_TYPE_IDS = direction_ids("c->s", "c<->s")
CLIENT_ACCEPTS = DOWNLINK_TYPE_IDS = direction_ids("s->c", "c<->s")
FABRIC_ACCEPTS = FABRIC_TYPE_IDS = direction_ids("s->s")
"""

COMMANDS_SRC = """
from .schema import rect16, sized, wire_type


@wire_type("BLIT", 1, "s->c", "s")
class BlitCommand:
    rect = rect16()
    pixels = sized(max="max_frame_bytes")
"""

WIRE_SRC = """
from .schema import message, rest, u16, u32


class StreamParser:
    def __init__(self, max_frame=0, max_pending=0, allowed=None):
        self.allowed = allowed


@message("PING", 16, "c->s", "s")
class PingMessage:
    nonce = u32()


@message("PONG", 17, "s->c", "s")
class PongMessage:
    nonce = u32()
    load = u16(0, "max_load")


@message("XFER", 32, "s->s", "s")
class XferMessage:
    token = u32()
    state = rest(max="max_transfer_bytes")
"""

SESSION_SRC = """
from ..protocol.spec import SERVER_ACCEPTS
from ..protocol import wire

NOT_SERIALIZED = {
    "_parser": "rebuilt clean on thaw",
}


class SessionUnit:
    def __init__(self):
        self.viewport = (0, 0)
        self._parser = wire.StreamParser(allowed=SERVER_ACCEPTS)

    def handle(self, msg):
        if isinstance(msg, wire.PingMessage):
            return "pong"

    def freeze(self):
        return {"viewport": self.viewport}
"""

CLIENT_SRC = """
from ..protocol.spec import CLIENT_ACCEPTS
from ..protocol import wire
from ..protocol.commands import BlitCommand


class THINCClient:
    def __init__(self):
        self.parser = wire.StreamParser(max_frame=1 << 16,
                                        allowed=CLIENT_ACCEPTS)

    def render(self, msg):
        if isinstance(msg, (wire.PongMessage, BlitCommand)):
            return True
"""

COORD_SRC = """
from ..protocol.spec import FABRIC_ACCEPTS
from ..protocol import wire


class ShardCoordinator:
    def __init__(self):
        self._fabric = wire.StreamParser(allowed=FABRIC_ACCEPTS)

    def transfer_class(self):
        return wire.XferMessage
"""

CLEAN_TREE = {
    "protocol/spec.py": SPEC_SRC,
    "protocol/commands.py": COMMANDS_SRC,
    "protocol/wire.py": WIRE_SRC,
    "core/session_unit.py": SESSION_SRC,
    "core/client.py": CLIENT_SRC,
    "cluster/coordinator.py": COORD_SRC,
}


def build_tree(tmp_path, overrides=None):
    """Write the synthetic fixture tree, with per-test file overrides
    keyed by tree-relative path."""
    root = tmp_path / "repro"
    files = dict(CLEAN_TREE)
    files.update(overrides or {})
    for rel, src in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(src))
    return root


def findings_of(root):
    return check_contracts(extract_facts(root))


def rules_of(root):
    return [f.rule for f in findings_of(root)]


class TestSyntheticClean:
    def test_clean_tree_has_no_findings(self, tmp_path):
        assert findings_of(build_tree(tmp_path)) == []


class TestTHL200:
    def test_flags_unregistered_type_id(self, tmp_path):
        root = build_tree(tmp_path, {"protocol/wire.py": WIRE_SRC + """

class RogueProbeMessage:
    type_id = 99
"""})
        findings = findings_of(root)
        assert [f.rule for f in findings] == ["THL200"]
        assert "RogueProbeMessage" in findings[0].message
        assert "99" in findings[0].message

    def test_flags_type_id_registered_to_another_class(self, tmp_path):
        root = build_tree(tmp_path, {
            "protocol/commands.py": COMMANDS_SRC + """

class ShadowCommand:
    type_id = 16
"""})
        findings = findings_of(root)
        assert [f.rule for f in findings] == ["THL200"]
        assert "ShadowCommand" in findings[0].message
        assert "registered to PingMessage" in findings[0].message

    def test_flags_duplicate_registration(self, tmp_path):
        root = build_tree(tmp_path, {"protocol/wire.py": WIRE_SRC + """

@message("PING2", 16, "c->s", "s")
class Ping2Message:
    nonce = u32()
"""})
        findings = [f for f in findings_of(root) if f.rule == "THL200"]
        assert len(findings) == 1
        assert "registered twice (PING and PING2)" in findings[0].message

    def test_flags_declaration_colliding_with_a_spec_row(self, tmp_path):
        collide = WIRE_SRC.replace('"PONG", 17', '"PONG", 1')
        root = build_tree(tmp_path, {"protocol/wire.py": collide})
        assert any(f.rule == "THL200"
                   and "registered twice (BLIT and PONG)" in f.message
                   for f in findings_of(root))


class TestTHL201:
    def test_flags_parser_without_allowed_set(self, tmp_path):
        widened = CLIENT_SRC.replace(",\n"
                                     "                                        "
                                     "allowed=CLIENT_ACCEPTS", "")
        root = build_tree(tmp_path, {"core/client.py": widened})
        findings = findings_of(root)
        assert [f.rule for f in findings] == ["THL201"]
        assert "no allowed-id set" in findings[0].message
        assert "CLIENT_ACCEPTS" in findings[0].message

    def test_flags_widening_expression(self, tmp_path):
        widened = CLIENT_SRC.replace("allowed=CLIENT_ACCEPTS",
                                     "allowed=CLIENT_ACCEPTS | {32}")
        root = build_tree(tmp_path, {"core/client.py": widened})
        findings = findings_of(root)
        assert [f.rule for f in findings] == ["THL201"]
        assert "widening" in findings[0].message

    def test_flags_foreign_direction_dispatch(self, tmp_path):
        confused = CLIENT_SRC + """
    def smuggle(self, msg):
        if isinstance(msg, wire.XferMessage):
            return False
"""
        root = build_tree(tmp_path, {"core/client.py": confused})
        findings = findings_of(root)
        assert [f.rule for f in findings] == ["THL201"]
        assert "can never legitimately receive" in findings[0].message
        assert "XferMessage" in findings[0].message

    def test_accepts_raw_direction_set_name(self, tmp_path):
        # The un-aliased spec export is as good as the alias.
        raw = CLIENT_SRC.replace("CLIENT_ACCEPTS", "DOWNLINK_TYPE_IDS")
        assert findings_of(build_tree(tmp_path, {"core/client.py": raw})) == []


class TestTHL202:
    def test_flags_dead_wire_id(self, tmp_path):
        deaf = CLIENT_SRC.replace("(wire.PongMessage, BlitCommand)",
                                  "BlitCommand")
        assert deaf != CLIENT_SRC
        root = build_tree(tmp_path, {"core/client.py": deaf})
        findings = findings_of(root)
        assert [f.rule for f in findings] == ["THL202"]
        assert "PONG" in findings[0].message
        assert "dead wire id" in findings[0].message

    def test_fabric_plain_reference_counts_as_handling(self, tmp_path):
        # The coordinator consumes fabric messages by construction and
        # log adoption, not isinstance fan-out; a plain reference in
        # the fabric scope suffices (the clean tree relies on it).
        assert findings_of(build_tree(tmp_path)) == []


class TestTHL204:
    def test_flags_unserialized_attribute(self, tmp_path):
        drifted = SESSION_SRC.replace(
            "self.viewport = (0, 0)",
            "self.viewport = (0, 0)\n        self._scratch = []")
        root = build_tree(tmp_path, {"core/session_unit.py": drifted})
        findings = findings_of(root)
        assert [f.rule for f in findings] == ["THL204"]
        assert "_scratch" in findings[0].message
        assert "neither captured by freeze()" in findings[0].message

    def test_flags_stale_allowlist_entry(self, tmp_path):
        stale = SESSION_SRC.replace(
            '"_parser": "rebuilt clean on thaw",',
            '"_parser": "rebuilt clean on thaw",\n'
            '    "ghost": "never existed",')
        root = build_tree(tmp_path, {"core/session_unit.py": stale})
        findings = findings_of(root)
        assert [f.rule for f in findings] == ["THL204"]
        assert "never assigns" in findings[0].message

    def test_flags_allowlisted_but_frozen(self, tmp_path):
        both = SESSION_SRC.replace(
            '"_parser": "rebuilt clean on thaw",',
            '"_parser": "rebuilt clean on thaw",\n'
            '    "viewport": "already frozen",')
        root = build_tree(tmp_path, {"core/session_unit.py": both})
        findings = findings_of(root)
        assert [f.rule for f in findings] == ["THL204"]
        assert "freeze() captures" in findings[0].message

    def test_flags_missing_reason(self, tmp_path):
        bare = SESSION_SRC.replace('"rebuilt clean on thaw"', '""')
        root = build_tree(tmp_path, {"core/session_unit.py": bare})
        findings = findings_of(root)
        assert [f.rule for f in findings] == ["THL204"]
        assert "no reason string" in findings[0].message


class TestTHL205:
    def test_flags_wall_clock_call(self, tmp_path):
        ticking = COORD_SRC + """
import time


def _stamp():
    return time.time()
"""
        root = build_tree(tmp_path, {"cluster/coordinator.py": ticking})
        findings = findings_of(root)
        assert [f.rule for f in findings] == ["THL205"]
        assert "time.time()" in findings[0].message

    def test_perf_counter_is_not_banned(self, tmp_path):
        measured = COORD_SRC + """
import time


def _wall_cost():
    return time.perf_counter()
"""
        root = build_tree(tmp_path, {"cluster/coordinator.py": measured})
        assert findings_of(root) == []

    def test_from_import_alias_is_tracked(self, tmp_path):
        aliased = COORD_SRC + """
from time import monotonic as _mono


def _stamp():
    return _mono()
"""
        root = build_tree(tmp_path, {"cluster/coordinator.py": aliased})
        assert rules_of(root) == ["THL205"]

    def test_clock_sweep_over_arbitrary_tree(self, tmp_path):
        tree = tmp_path / "swept"
        tree.mkdir()
        (tree / "ok.py").write_text(
            "import time\nCOST = time.perf_counter\n")
        (tree / "bad.py").write_text(
            "import time\n\n\ndef now():\n    return time.monotonic()\n")
        findings = check_clock_sweep(tree)
        assert [f.rule for f in findings] == ["THL205"]
        assert findings[0].path.endswith("bad.py")


# --- the real tree: clean, spec lock-step, seeded mutations ------------------

def mutate_real_tree(tmp_path, rel, old, new):
    """Copy src/repro and apply one targeted text mutation."""
    dst = tmp_path / "repro"
    shutil.copytree(SRC, dst,
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = dst / rel
    text = path.read_text()
    assert old in text, f"mutation anchor vanished from {rel}: {old!r}"
    path.write_text(text.replace(old, new, 1))
    return dst


class TestRealTree:
    def test_production_tree_is_clean(self):
        assert findings_of(SRC) == []

    def test_ast_spec_matches_live_registry(self):
        """The analyzer never imports the tree it reads; this pins the
        AST-extracted registry to the live PROTOCOL_SPEC so the two
        cannot drift apart silently."""
        extracted = {(e.name, e.type_id, e.direction, e.implementation)
                     for e in extract_facts(SRC).spec}
        live = {(s.name, s.type_id, s.direction, s.implementation.__name__)
                for s in PROTOCOL_SPEC}
        assert extracted == live

    def test_ast_field_tables_match_live_schema(self):
        """Same pin for the bounds column: the field rows and bound
        strings read from the ``@message`` class bodies equal what the
        schema compiled, and a validator is only ever credited to the
        class that declares it."""
        declared = {m.name: m.fields for m in extract_facts(SRC).messages
                    if m.fields is not None}
        assert set(declared) == {c.__name__ for c in REGISTRY.values()}
        for cls in REGISTRY.values():
            rows = declared[cls.__name__]
            assert [(name, bound) for name, bound, _ in rows] == [
                (name, field.bound)
                for name, field in cls.schema.fields.items()]
            assert {check for _, _, check in rows if check} <= {
                getattr(cls.schema.check, "__name__", None)}

    def test_matrix_stars_validator_and_loop_checked_fields(self):
        """The column is read, not inferred: a validator-checked field
        (TILE_ASSIGN's tile), declared ranges (QOS_REPORT's quality
        fractions) and a display command's header rows all show."""
        matrix = render_contract_matrix(extract_facts(SRC)).splitlines()
        raw = next(row for row in matrix if "`RAW`" in row)
        assert "encoding* [0, max_raw_encoding]" in raw
        assert "payload* len <= max_frame_bytes" in raw
        tile = next(row for row in matrix if "`TILE_ASSIGN`" in row)
        assert "rect* _check_tile_assign" in tile
        qos = next(row for row in matrix if "`QOS_REPORT`" in row)
        assert "playback_quality* finite [0.0, 1.0]" in qos
        assert "audio_quality* finite [0.0, 1.0]" in qos

    def test_matrix_covers_every_spec_id(self):
        matrix = render_contract_matrix(extract_facts(SRC))
        for spec in PROTOCOL_SPEC:
            assert f"| {spec.type_id} | `{spec.name}` |" in matrix
        assert "Ids 32–35 are `s->s` only" in matrix

    def test_committed_matrix_is_fresh(self):
        committed = (REPO / "docs" / "CONTRACTS.md").read_text()
        assert committed == render_contract_matrix(extract_facts(SRC))

    def test_committed_baseline_is_empty(self):
        data = json.loads((REPO / "analysis_baseline.json").read_text())
        assert data["findings"] == []
        assert data["suppression_budget"] == 0


class TestSeededMutations:
    """Each mutation of the production sources yields exactly the
    expected finding — the analyzer's teeth, proven end to end."""

    def test_deleting_a_handler_is_a_dead_wire_id(self, tmp_path):
        root = mutate_real_tree(
            tmp_path, "core/client.py",
            "        if isinstance(msg, wire.VideoTeardownMessage):\n"
            "            self.video_streams.pop(msg.stream_id, None)\n"
            "            self.video_quality.pop(msg.stream_id, None)\n"
            "            return\n",
            "")
        findings = findings_of(root)
        assert [f.rule for f in findings] == ["THL202"]
        assert "VTEARDOWN" in findings[0].message

    def test_widening_a_parser_set_is_a_direction_violation(self, tmp_path):
        root = mutate_real_tree(
            tmp_path, "core/session_unit.py",
            "allowed=SERVER_ACCEPTS)", "allowed=None)")
        findings = findings_of(root)
        assert [f.rule for f in findings] == ["THL201"]
        assert "SERVER_ACCEPTS" in findings[0].message

    def test_unserialized_session_attribute_is_flagged(self, tmp_path):
        root = mutate_real_tree(
            tmp_path, "core/session_unit.py",
            "        self._pipe_tail = 0.0\n",
            "        self._pipe_tail = 0.0\n"
            "        self._migration_epoch = 0\n")
        findings = findings_of(root)
        assert [f.rule for f in findings] == ["THL204"]
        assert "_migration_epoch" in findings[0].message

    def test_unregistered_type_id_is_flagged(self, tmp_path):
        root = mutate_real_tree(
            tmp_path, "protocol/wire.py",
            "\n@message(\"VSETUP\"",
            "\nclass RogueProbeMessage:\n"
            "    type_id = 99\n\n\n@message(\"VSETUP\"")
        findings = findings_of(root)
        assert [f.rule for f in findings] == ["THL200"]
        assert "99" in findings[0].message

    def test_wall_clock_in_cluster_is_flagged(self, tmp_path):
        root = mutate_real_tree(
            tmp_path, "cluster/hashring.py",
            "from __future__ import annotations\n",
            "from __future__ import annotations\n\n"
            "import time\n\n_EPOCH = time.time()\n")
        findings = findings_of(root)
        assert [f.rule for f in findings] == ["THL205"]
        assert findings[0].path.endswith("cluster/hashring.py")


# --- the findings baseline ---------------------------------------------------

class TestBaseline:
    def _one_finding(self, tmp_path):
        root = build_tree(tmp_path, {"core/session_unit.py": SESSION_SRC.replace(
            "self.viewport = (0, 0)",
            "self.viewport = (0, 0)\n        self._scratch = []")})
        (finding,) = findings_of(root)
        return root, finding

    def test_new_finding_fails(self, tmp_path):
        root, finding = self._one_finding(tmp_path)
        result = apply_baseline([finding], Baseline(0, frozenset()), root)
        assert result.new == (finding,)
        assert not result.ok

    def test_baselined_finding_passes_within_budget(self, tmp_path):
        root, finding = self._one_finding(tmp_path)
        key = finding_key(finding, root)
        result = apply_baseline([finding], Baseline(1, frozenset({key})),
                                root)
        assert result.ok
        assert result.accepted == (finding,)

    def test_budget_of_zero_rejects_accepted_findings(self, tmp_path):
        root, finding = self._one_finding(tmp_path)
        key = finding_key(finding, root)
        result = apply_baseline([finding], Baseline(0, frozenset({key})),
                                root)
        assert result.over_budget == 1
        assert not result.ok

    def test_fixed_finding_flags_stale_entry(self, tmp_path):
        root = build_tree(tmp_path)  # clean: the "fix" has shipped
        key = "THL204|core/session_unit.py|whatever"
        result = apply_baseline([], Baseline(1, frozenset({key})), root)
        assert result.stale == (key,)
        assert not result.ok

    def test_key_is_line_independent(self, tmp_path):
        root, finding = self._one_finding(tmp_path)
        key = finding_key(finding, root)
        assert str(finding.line) not in key.split("|")
        assert key.startswith("THL204|core/session_unit.py|")

    def test_missing_baseline_file_is_empty(self, tmp_path):
        baseline = load_baseline(tmp_path / "nope.json")
        assert baseline.budget == 0 and baseline.keys == frozenset()


# --- the CLI ------------------------------------------------------------------

class TestContractsCLI:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = build_tree(tmp_path)
        assert analysis_main(["--contracts", str(root)]) == 0

    def test_new_finding_exits_one(self, tmp_path, capsys):
        root = build_tree(tmp_path, {"core/session_unit.py": SESSION_SRC.replace(
            "self.viewport = (0, 0)",
            "self.viewport = (0, 0)\n        self._scratch = []")})
        assert analysis_main(["--contracts", str(root)]) == 1
        assert "THL204" in capsys.readouterr().out

    def test_baselined_finding_exits_zero(self, tmp_path, capsys):
        root = build_tree(tmp_path, {"core/session_unit.py": SESSION_SRC.replace(
            "self.viewport = (0, 0)",
            "self.viewport = (0, 0)\n        self._scratch = []")})
        (finding,) = findings_of(root)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "version": 1, "suppression_budget": 1,
            "findings": [finding_key(finding, root)]}))
        assert analysis_main(["--contracts", str(root),
                              "--baseline", str(baseline)]) == 0
        assert "baseline:" in capsys.readouterr().out

    def test_stale_baseline_entry_exits_one(self, tmp_path, capsys):
        root = build_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "version": 1, "suppression_budget": 1,
            "findings": ["THL204|core/session_unit.py|long gone"]}))
        assert analysis_main(["--contracts", str(root),
                              "--baseline", str(baseline)]) == 1
        assert "stale" in capsys.readouterr().out

    def test_missing_root_exits_two(self, tmp_path, capsys):
        assert analysis_main(["--contracts",
                              str(tmp_path / "missing")]) == 2

    def test_matrix_roundtrip(self, tmp_path, capsys):
        root = build_tree(tmp_path)
        out = tmp_path / "CONTRACTS.md"
        assert analysis_main(["--contracts", str(root),
                              "--matrix-out", str(out)]) == 0
        assert analysis_main(["--contracts", str(root),
                              "--matrix-check", str(out)]) == 0

    def test_stale_matrix_exits_one(self, tmp_path, capsys):
        root = build_tree(tmp_path)
        out = tmp_path / "CONTRACTS.md"
        out.write_text("# stale\n")
        assert analysis_main(["--contracts", str(root),
                              "--matrix-check", str(out)]) == 1
        assert "stale" in capsys.readouterr().out

    def test_sweep_flag_extends_thl205(self, tmp_path, capsys):
        root = build_tree(tmp_path)
        swept = tmp_path / "bench"
        swept.mkdir()
        (swept / "ticker.py").write_text(
            "import time\n\n\ndef now():\n    return time.monotonic()\n")
        assert analysis_main(["--contracts", str(root),
                              "--sweep", str(swept)]) == 1
        assert "THL205" in capsys.readouterr().out

    def test_repo_default_invocation_is_clean(self, capsys):
        # The committed tree + committed baseline + committed matrix,
        # exactly as `make analyze` and CI run it.
        assert analysis_main(["--contracts"]) == 0
