"""Tripwire for thincbench's tracer: every wrap point still exists.

``benchmarks/e2e/tracing.py`` patches entry points in ``src/repro`` by
name; when one is renamed it prints to stderr and silently drops the
span, so the ledger row goes wrong without any failure.  Resolving
every name here makes a rename fail tier-1 instead.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[2] / "benchmarks/e2e/tracing.py"


def test_every_wrap_point_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("_thincbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    points = tracing._wrap_points()
    assert points
    gone = [f"{owner.__name__}.{name}" for _, owner, name, _, _ in points
            if not callable(getattr(owner, name, None))]
    assert not gone, gone
