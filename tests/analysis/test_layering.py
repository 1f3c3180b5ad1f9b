"""Tests for the import-layering checker and the layer map itself."""

import ast
from pathlib import Path

import pytest

from repro.analysis import module_name_for
from repro.analysis.layering import check_tree
from repro.analysis.layermap import (LAYER_RANKS, TOPLEVEL_RANK,
                                     import_allowed, rank_of)
from repro.analysis.lint import lint_tree

SRC_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"


def violations(src, module):
    return check_tree(ast.parse(src), module, path=f"{module}.py")


class TestLayerMap:
    def test_region_is_the_bottom(self):
        assert rank_of("region") == min(LAYER_RANKS.values())

    def test_analysis_is_the_top(self):
        assert rank_of("analysis") == max(LAYER_RANKS.values())
        assert rank_of("analysis") > TOPLEVEL_RANK

    def test_unknown_package_is_an_error_not_a_pass(self):
        with pytest.raises(KeyError):
            rank_of("plugins")

    def test_downward_imports_allowed(self):
        assert import_allowed("core", "region")
        assert import_allowed("core", "net")
        assert import_allowed("bench", "baselines")
        assert import_allowed(None, "bench")  # top-level entry points

    def test_upward_and_peer_imports_forbidden(self):
        assert not import_allowed("region", "core")
        assert not import_allowed("protocol", "core")
        assert not import_allowed("net", "video")  # peers
        assert not import_allowed("protocol", "display")  # peers
        assert not import_allowed(None, "analysis")

    def test_same_package_always_allowed(self):
        assert import_allowed("core", "core")


class TestChecker:
    def test_flags_upward_absolute_import(self):
        out = violations("from repro.core import CommandQueue\n",
                         "repro.region.fixture")
        assert [f.rule for f in out] == ["THL100"]
        assert "strictly downward" in out[0].message

    def test_flags_upward_relative_import(self):
        out = violations("from ..core import server\n",
                         "repro.region.fixture")
        assert [f.rule for f in out] == ["THL100"]

    def test_flags_peer_import_with_peer_message(self):
        out = violations("from repro.display import WindowServer\n",
                         "repro.protocol.fixture")
        assert [f.rule for f in out] == ["THL100"]
        assert "peer layers" in out[0].message

    def test_flags_plain_import_statement(self):
        out = violations("import repro.bench\n", "repro.display.fixture")
        assert [f.rule for f in out] == ["THL100"]

    def test_flags_subpackage_from_root_import(self):
        out = violations("from repro import bench\n", "repro.display.fixture")
        assert [f.rule for f in out] == ["THL100"]

    def test_allows_downward_imports(self):
        assert violations("from ..region import Rect\n",
                          "repro.display.fixture") == []
        assert violations("from repro.protocol import wire\n",
                          "repro.core.fixture") == []

    def test_allows_intra_package_imports(self):
        assert violations("from . import geometry\n",
                          "repro.region.fixture") == []

    def test_package_init_resolves_against_itself(self):
        # A nested module shadowing a top-level package name (bench has
        # its own analysis.py) must resolve to the sibling, not the
        # top-level repro.analysis package.
        assert violations("from .analysis import smoothness\n",
                          "repro.bench.__init__") == []

    def test_ignores_stdlib_and_third_party(self):
        src = "import os\nimport numpy as np\nfrom pathlib import Path\n"
        assert violations(src, "repro.region.fixture") == []


class TestRealTree:
    def test_source_tree_is_finding_free(self):
        # The acceptance gate: lint + layering over src/repro is clean.
        findings = []
        for path in sorted(SRC_ROOT.rglob("*.py")):
            tree = ast.parse(path.read_text())
            module = module_name_for(Path("repro", path.relative_to(SRC_ROOT)))
            findings += lint_tree(tree, module, str(path))
            findings += check_tree(tree, module, str(path))
        assert findings == []
