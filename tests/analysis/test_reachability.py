"""Every src/repro module is reached from an entry point by an import walk through re-exports."""

import ast
from importlib.util import resolve_name
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
ENTRIES = ("cli", "__main__", "cluster.scenario", "cluster.smoke", "bench.claims",
           "fuzz.harness", "fuzz.__main__", "analysis.__main__")
EXEMPT = {"repro.core.miniclient": "the second-client oracle of the equivalence test"}


def path(mod):
    base = SRC.joinpath(*mod.split("."))
    return base / "__init__.py" if base.is_dir() else base.with_suffix(".py")


def defining_module(mod, name):
    if path(f"{mod}.{name}").exists():
        return f"{mod}.{name}"
    body = ast.parse(path(mod).read_text()).body if path(mod).stem == "__init__" else []
    reexports = {a.asname or a.name: n.module for n in body
                 if isinstance(n, ast.ImportFrom) and n.level == 1 for a in n.names}
    return defining_module(f"{mod}.{reexports[name]}", name) if name in reexports else mod


def test_every_module_is_reached_from_an_entry_point():
    seen, todo = set(), [f"repro.{entry}" for entry in ENTRIES]
    while todo:
        if (mod := todo.pop()) not in seen and path(mod).exists():
            seen.add(mod)
            pkg = mod if path(mod).stem == "__init__" else mod.rpartition(".")[0]
            for node in ast.walk(ast.parse(path(mod).read_text())):
                if isinstance(node, ast.Import):
                    todo += [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    base = resolve_name("." * node.level + (node.module or ""), pkg)
                    todo += [defining_module(base, a.name) for a in node.names]
    assert {"repro." + ".".join(p.relative_to(SRC / "repro").with_suffix("").parts)
            for p in (SRC / "repro").rglob("*.py") if p.stem != "__init__"} - seen == set(EXEMPT)
