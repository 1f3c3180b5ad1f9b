"""Fixture tests for every thinclint rule: a snippet each rule must
flag, and the idiomatic fix it must pass.  Mutable defaults and bare
excepts are ruff's B006 / E722 (ruff.toml), not rules here."""

import ast
import textwrap
from pathlib import Path

from repro.analysis import module_name_for
from repro.analysis.lint import lint_tree

# An arbitrary module outside the display and protocol packages.
MOD = "repro.workloads.fixture"


def lint(src, module=MOD):
    return lint_tree(ast.parse(textwrap.dedent(src)), module)


def rules_of(src, module=MOD):
    return [f.rule for f in lint(src, module)]


class TestCommandContract:
    def test_flags_missing_overwrite_semantics(self):
        src = """
        class PatternCommand(Command):
            kind = "pattern"
        """
        findings = lint(src, "repro.protocol.fixture")
        assert [f.rule for f in findings] == ["THL001"]
        assert "overwrite_class" in findings[0].message

    def test_passes_full_contract(self):
        src = """
        class PatternCommand(Command):
            kind = "pattern"
            overwrite_class = OverwriteClass.COMPLETE
            def translated(self, dx, dy): ...
            def clipped(self, rects): ...
            def to_rows(self): ...
            def from_rows(cls, rect): ...
            def apply(self, fb): ...
        """
        assert rules_of(src, "repro.protocol.fixture") == []

    def test_ignores_unrelated_classes(self):
        assert rules_of("class Helper:\n    pass\n") == []


class TestFramebufferWrite:
    def test_flags_direct_data_store(self):
        assert rules_of("fb.data[0, 0] = 255\n") == ["THL002"]

    def test_flags_augmented_data_store(self):
        assert rules_of("fb.data[y, x] += 1\n") == ["THL002"]

    def test_flags_private_view_call(self):
        assert rules_of("block = fb._view(rect)\n") == ["THL002"]

    def test_allows_reads(self):
        assert rules_of("value = fb.data[0, 0]\n") == []

    def test_allows_writes_inside_display(self):
        src = "fb.data[0, 0] = 255\n"
        assert rules_of(src, "repro.display.fixture") == []


class TestHeadDrain:
    def test_flags_list_pop_zero(self):
        assert rules_of("queue.pop(0)\n") == ["THL003"]

    def test_flags_del_head(self):
        assert rules_of("del queue[0]\n") == ["THL003"]

    def test_allows_dict_pop_with_default(self):
        assert rules_of("mapping.pop(0, None)\n") == []

    def test_allows_tail_pop(self):
        assert rules_of("queue.pop()\n") == []


class TestWireConstant:
    def test_flags_hardcoded_size(self):
        assert rules_of("FRAME_OVERHEAD = 13\n") == ["THL004"]

    def test_flags_literal_arithmetic(self):
        assert rules_of("MSG_HEADER_BYTES = 1 + 4 + 8\n") == ["THL004"]

    def test_allows_derived_size(self):
        assert rules_of("FRAME_OVERHEAD = wire.FRAME_OVERHEAD\n") == []

    def test_allows_definitions_inside_protocol(self):
        src = "FRAME_OVERHEAD = 13\n"
        assert rules_of(src, "repro.protocol.fixture") == []

    def test_ignores_unrelated_constants(self):
        assert rules_of("MAX_WINDOWS = 64\n") == []


class TestHandPackedLayout:
    WIRE_CLASS = """
        @wire_type("PATTERN", 99, "s->c", "test")
        class PatternCommand:
            rect = rect16()

            @classmethod
            def from_rows(cls, rect):
                {body}
        """

    def test_flags_struct_calls_in_a_wire_id_class(self):
        for body in ("return cls(*struct.unpack('>HH', rect))",
                     "return cls(*_HEAD.unpack_from(rect))"):
            src = self.WIRE_CLASS.format(body=body)
            assert rules_of(src, "repro.protocol.fixture") == ["THL007"]
        # The same call outside a declared class is not this rule's.
        assert rules_of("size = _FRAME.unpack_from(data)\n") == []
        assert rules_of(self.WIRE_CLASS.format(body="return cls(rect)"),
                        "repro.protocol.fixture") == []

    def test_session_unit_module_is_covered_whole(self):
        src = "_HEAD = struct.Struct('>BI')\n"
        assert rules_of(src, "repro.core.session_unit") == ["THL007"]
        assert rules_of(src, "repro.core.delivery") == []
        # Naming an exception class is not a call into the API.
        assert rules_of("try:\n    go()\nexcept struct.error:\n    pass\n",
                        "repro.core.session_unit") == []


class TestModuleNames:
    def test_strips_leading_source_dirs(self):
        path = Path("src/repro/core/server.py")
        assert module_name_for(path) == "repro.core.server"

    def test_keeps_package_init(self):
        path = Path("src/repro/bench/__init__.py")
        assert module_name_for(path) == "repro.bench.__init__"
