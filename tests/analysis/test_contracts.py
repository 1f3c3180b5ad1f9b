"""The THL2xx protocol-contract analyzer, proven on two trees.

A synthetic fixture checkout exercises every rule with a positive (the
mutation the rule must flag) and a negative (the idiomatic fix it must
pass); copytree mutations of the *real* ``src/repro`` then prove each
rule fires on the production sources — deleting one handler, widening
one parser set, adding one unserialized SessionUnit attribute each
produce exactly the expected finding.  The field tables the analyzer
reads off the ``@message`` / ``@wire_type`` declarations are pinned to
the live schema, from one pass over the real checkout.  The CLI exit
codes are covered at the bottom.

A duplicate or hand-set wire id is not a rule here: the schema refuses
it at import, and ``TestTHL200`` pins that it does for each case the
retired rule used to flag.
"""

import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
import repro.analysis.__main__ as cli
from repro.analysis import render_contract_matrix, run_all
from repro.protocol import schema, wire
from repro.protocol.schema import REGISTRY, message, u32
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
    """Write the synthetic fixture checkout (its package under
    ``src/repro``), with per-test file overrides keyed by
    package-relative path; returns the checkout root."""
    files = dict(CLEAN_TREE)
    files.update(overrides or {})
    for rel, src in files.items():
        path = tmp_path / "src" / "repro" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(src))
    return tmp_path


def findings_of(root):
    return run_all(root)[0]


def only_finding(root, rule):
    """The one finding the pass over *root* yields, which is *rule*'s."""
    findings = findings_of(root)
    assert [f.rule for f in findings] == [rule]
    return findings[0]


class TestSyntheticClean:
    def test_clean_tree_has_no_findings(self, tmp_path):
        assert findings_of(build_tree(tmp_path)) == []


class TestTHL200:
    """The cases the retired THL200 flagged after the fact, each now
    refused by the live schema: a taken id fails at decoration, and a
    class that sets ``type_id`` by hand is no wire id at all."""

    @pytest.fixture(autouse=True)
    def scratch_registry(self, monkeypatch):
        monkeypatch.setattr(schema, "REGISTRY", dict(schema.REGISTRY))

    def test_flags_unregistered_type_id(self):
        class RogueProbeMessage:
            type_id = 99

        assert not hasattr(RogueProbeMessage, "encode_payload")
        with pytest.raises(wire.ProtocolError,
                           match="unknown message type 99"):
            wire.parse_messages(
                wire.frame_message(RogueProbeMessage.type_id, b""))

    def test_flags_type_id_registered_to_another_class(self):
        class ShadowCommand:
            type_id = wire.HeartbeatMessage.type_id

        beat = wire.HeartbeatMessage(last_seq=7, time=1.5)
        (decoded,) = wire.parse_messages(wire.encode_message(beat))
        assert type(decoded) is wire.HeartbeatMessage
        assert schema.REGISTRY[ShadowCommand.type_id] is wire.HeartbeatMessage

    def test_flags_duplicate_registration(self):
        before = dict(schema.REGISTRY)
        taken = wire.HeartbeatMessage.type_id
        with pytest.raises(ValueError,
                           match=f"PING2: type id {taken} is already taken"):
            @message("PING2", taken, "c->s", "test")
            class Ping2Message:
                nonce = u32()
        assert schema.REGISTRY == before

    def test_flags_declaration_colliding_with_a_spec_row(self):
        raw = schema.REGISTRY[1]
        with pytest.raises(ValueError,
                           match="PONG: type id 1 is already taken"):
            @message("PONG", 1, "s->c", "test")
            class PongMessage:
                nonce = u32()
        assert schema.REGISTRY[1] is raw


class TestTHL201:
    def test_flags_parser_without_allowed_set(self, tmp_path):
        widened = CLIENT_SRC.replace(",\n"
                                     "                                        "
                                     "allowed=CLIENT_ACCEPTS", "")
        root = build_tree(tmp_path, {"core/client.py": widened})
        finding = only_finding(root, "THL201")
        assert "no allowed-id set" in finding.message
        assert "CLIENT_ACCEPTS" in finding.message

    def test_flags_widening_expression(self, tmp_path):
        widened = CLIENT_SRC.replace("allowed=CLIENT_ACCEPTS",
                                     "allowed=CLIENT_ACCEPTS | {32}")
        root = build_tree(tmp_path, {"core/client.py": widened})
        finding = only_finding(root, "THL201")
        assert "widening" in finding.message

    def test_flags_foreign_direction_dispatch(self, tmp_path):
        confused = CLIENT_SRC + """
    def smuggle(self, msg):
        if isinstance(msg, wire.XferMessage):
            return False
"""
        root = build_tree(tmp_path, {"core/client.py": confused})
        finding = only_finding(root, "THL201")
        assert "can never legitimately receive" in finding.message
        assert "XferMessage" in finding.message

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
        finding = only_finding(root, "THL202")
        assert "PONG" in finding.message
        assert "dead wire id" in finding.message

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
        finding = only_finding(root, "THL204")
        assert "_scratch" in finding.message
        assert "neither captured by freeze()" in finding.message

    def test_flags_stale_allowlist_entry(self, tmp_path):
        stale = SESSION_SRC.replace(
            '"_parser": "rebuilt clean on thaw",',
            '"_parser": "rebuilt clean on thaw",\n'
            '    "ghost": "never existed",')
        root = build_tree(tmp_path, {"core/session_unit.py": stale})
        finding = only_finding(root, "THL204")
        assert "never assigns" in finding.message

    def test_flags_allowlisted_but_frozen(self, tmp_path):
        both = SESSION_SRC.replace(
            '"_parser": "rebuilt clean on thaw",',
            '"_parser": "rebuilt clean on thaw",\n'
            '    "viewport": "already frozen",')
        root = build_tree(tmp_path, {"core/session_unit.py": both})
        finding = only_finding(root, "THL204")
        assert "freeze() captures" in finding.message

    def test_flags_missing_reason(self, tmp_path):
        bare = SESSION_SRC.replace('"rebuilt clean on thaw"', '""')
        root = build_tree(tmp_path, {"core/session_unit.py": bare})
        finding = only_finding(root, "THL204")
        assert "no reason string" in finding.message


class TestTHL205:
    def test_flags_wall_clock_call(self, tmp_path):
        ticking = COORD_SRC + "import time\n_EPOCH = time.time()\n"
        root = build_tree(tmp_path, {"cluster/coordinator.py": ticking})
        finding = only_finding(root, "THL205")
        assert "time.time()" in finding.message

    def test_perf_counter_is_not_banned(self, tmp_path):
        measured = COORD_SRC + "import time\n_COST = time.perf_counter()\n"
        root = build_tree(tmp_path, {"cluster/coordinator.py": measured})
        assert findings_of(root) == []

    def test_from_import_alias_is_tracked(self, tmp_path):
        aliased = COORD_SRC + "from time import monotonic as m\n_T = m()\n"
        root = build_tree(tmp_path, {"cluster/coordinator.py": aliased})
        only_finding(root, "THL205")

    def test_clock_sweep_over_arbitrary_tree(self, tmp_path):
        # tests/ and benchmarks/ beside src/ are swept, with no module
        # exempt there.
        root = build_tree(tmp_path)
        for name in ("tests", "benchmarks"):
            (root / name).mkdir()
        (root / "tests" / "ok.py").write_text("import time\n")
        (root / "benchmarks" / "bad.py").write_text(
            "import time\n_T = time.monotonic()\n")
        finding = only_finding(root, "THL205")
        assert finding.path.endswith("benchmarks/bad.py")


# --- the real tree: spec lock-step, seeded mutations -------------------------

@pytest.fixture(scope="module")
def real():
    """One pass over the real checkout: (findings, facts)."""
    return run_all(REPO)


@pytest.fixture(scope="module")
def matrix(real):
    return render_contract_matrix(real[1])


def mutate_real_tree(tmp_path, rel, old, new):
    """Copy src/repro into a checkout at *tmp_path* and apply one
    targeted text mutation."""
    dst = tmp_path / "src" / "repro"
    shutil.copytree(SRC, dst,
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = dst / rel
    text = path.read_text()
    assert old in text, f"mutation anchor vanished from {rel}: {old!r}"
    path.write_text(text.replace(old, new, 1))
    return tmp_path


class TestRealTree:
    def test_production_tree_is_clean(self, real):
        assert real[0] == []

    def test_ast_spec_matches_live_registry(self, real):
        """The analyzer never imports the tree it reads; this pins the
        AST-extracted registry to the live PROTOCOL_SPEC so the two
        cannot drift apart silently."""
        extracted = {(e.name, e.type_id, e.direction, e.implementation)
                     for e in real[1].spec}
        live = {(s.name, s.type_id, s.direction, s.implementation.__name__)
                for s in PROTOCOL_SPEC}
        assert extracted == live

    def test_ast_field_tables_match_live_schema(self, real):
        """Same pin for the bounds column: the field rows and bound
        strings read from the ``@message`` class bodies equal what the
        schema compiled, and a validator is only ever credited to the
        class that declares it."""
        declared = {m.name: m.fields for m in real[1].messages}
        assert set(declared) == {c.__name__ for c in REGISTRY.values()}
        for cls in REGISTRY.values():
            rows = declared[cls.__name__]
            assert [(name, bound) for name, bound, _ in rows] == [
                (name, field.bound)
                for name, field in cls.schema.fields.items()]
            assert {check for _, _, check in rows if check} <= {
                getattr(cls.schema.check, "__name__", None)}

    def test_matrix_stars_validator_and_loop_checked_fields(self, matrix):
        """The column is read, not inferred: a validator-checked field
        (TILE_ASSIGN's tile), declared ranges (QOS_REPORT's quality
        fractions) and a display command's header rows all show."""
        rows = matrix.splitlines()
        raw = next(row for row in rows if "`RAW`" in row)
        assert "encoding* [0, max_raw_encoding]" in raw
        assert "payload* len <= max_frame_bytes" in raw
        tile = next(row for row in rows if "`TILE_ASSIGN`" in row)
        assert "rect* _check_tile_assign" in tile
        qos = next(row for row in rows if "`QOS_REPORT`" in row)
        assert "playback_quality* finite [0.0, 1.0]" in qos
        assert "audio_quality* finite [0.0, 1.0]" in qos

    def test_matrix_covers_every_spec_id(self, matrix):
        for spec in PROTOCOL_SPEC:
            assert f"| {spec.type_id} | `{spec.name}` |" in matrix
        assert "Ids 32–35 are `s->s` only" in matrix

    def test_committed_matrix_is_fresh(self, matrix):
        assert (REPO / "docs" / "CONTRACTS.md").read_text() == matrix


class TestSeededMutations:
    """Each mutation of the production sources yields exactly the
    expected finding from the whole pass — the analyzer's teeth, proven
    end to end."""

    def test_deleting_a_handler_is_a_dead_wire_id(self, tmp_path):
        finding = only_finding(mutate_real_tree(
            tmp_path, "core/client.py",
            "        if isinstance(msg, wire.VideoTeardownMessage):\n"
            "            self.video_streams.pop(msg.stream_id, None)\n"
            "            self.video_quality.pop(msg.stream_id, None)\n"
            "            return\n",
            ""), "THL202")
        assert "VTEARDOWN" in finding.message

    def test_widening_a_parser_set_is_a_direction_violation(self, tmp_path):
        finding = only_finding(mutate_real_tree(
            tmp_path, "core/session_unit.py",
            "allowed=SERVER_ACCEPTS)", "allowed=None)"), "THL201")
        assert "SERVER_ACCEPTS" in finding.message

    def test_unserialized_session_attribute_is_flagged(self, tmp_path):
        finding = only_finding(mutate_real_tree(
            tmp_path, "core/session_unit.py",
            "        self.link_posture = None\n",
            "        self.link_posture = None\n"
            "        self._migration_epoch = 0\n"), "THL204")
        assert "_migration_epoch" in finding.message

    def test_unregistered_type_id_is_flagged(self, tmp_path):
        # The wire refuses this one, not the analyzer: the mutated
        # package is imported and handed a frame of the rogue id.
        root = mutate_real_tree(
            tmp_path, "protocol/wire.py",
            "\n@message(\"VSETUP\"",
            "\nclass RogueProbeMessage:\n"
            "    type_id = 99\n\n\n@message(\"VSETUP\"")
        probe = ("from repro.protocol import wire\n"
                 "assert wire.RogueProbeMessage.type_id == 99\n"
                 "wire.parse_messages(wire.frame_message(99, b''))\n")
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        result = subprocess.run([sys.executable, "-c", probe], cwd=root,
                                env=env, capture_output=True, text=True,
                                timeout=120)
        assert result.returncode == 1
        assert "ProtocolError: unknown message type 99" in result.stderr

    def test_wall_clock_in_cluster_is_flagged(self, tmp_path):
        finding = only_finding(mutate_real_tree(
            tmp_path, "cluster/hashring.py",
            "from __future__ import annotations\n",
            "from __future__ import annotations\n\n"
            "import time\n\n_EPOCH = time.time()\n"), "THL205")
        assert finding.path.endswith("cluster/hashring.py")


# --- the CLI -----------------------------------------------------------------

class TestContractsCLI:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = build_tree(tmp_path)
        out = root / "docs" / "CONTRACTS.md"
        assert cli.main([str(root), "--matrix-out", str(out)]) == 0

    def test_new_finding_exits_one(self, tmp_path, capsys):
        root = build_tree(tmp_path, {"core/session_unit.py": SESSION_SRC.replace(
            "self.viewport = (0, 0)",
            "self.viewport = (0, 0)\n        self._scratch = []")})
        out = root / "docs" / "CONTRACTS.md"
        assert cli.main([str(root), "--matrix-out", str(out)]) == 1
        assert "THL204" in capsys.readouterr().out

    def test_missing_root_exits_two(self, tmp_path, capsys):
        assert cli.main([str(tmp_path / "missing")]) == 2

    def test_matrix_roundtrip(self, tmp_path, capsys):
        root = build_tree(tmp_path)
        out = root / "docs" / "CONTRACTS.md"
        cli.main([str(root), "--matrix-out", str(out)])
        assert out.read_text() == render_contract_matrix(run_all(root)[1])
        assert cli.main([str(root)]) == 0

    def test_stale_matrix_exits_one(self, tmp_path, capsys):
        root = build_tree(tmp_path)
        (root / "docs").mkdir()
        (root / "docs" / "CONTRACTS.md").write_text("# stale\n")
        assert cli.main([str(root)]) == 1
        assert "stale" in capsys.readouterr().out

    def test_sweep_flag_extends_thl205(self, tmp_path, capsys):
        # No flag any more: every run sweeps benchmarks/ beside src/.
        root = build_tree(tmp_path)
        (root / "benchmarks").mkdir()
        (root / "benchmarks" / "ticker.py").write_text(
            "import time\n\n\ndef now():\n    return time.monotonic()\n")
        out = root / "docs" / "CONTRACTS.md"
        assert cli.main([str(root), "--matrix-out", str(out)]) == 1
        assert "THL205" in capsys.readouterr().out

    def test_one_mode_two_options(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        options = [line.split()[0] for line in
                   capsys.readouterr().out.splitlines()
                   if line.startswith("  -")]
        assert options == ["-h,", "--matrix-out"]

    def test_repo_default_invocation_is_clean(self, real, monkeypatch,
                                              capsys):
        # `make analyze` as CI runs it: lint, layering, contracts and the
        # tests/ + benchmarks/ clock sweep over this checkout (the
        # module's one pass over it), then the committed matrix check.
        roots = []
        monkeypatch.setattr(cli, "run_all",
                            lambda root: roots.append(root) or real)
        assert cli.main([]) == 0
        assert roots == [REPO]
