"""Tripwire for thincbench's counters: every key it reads still exists.

``benchmarks/e2e/harness.py`` reads the layers' own counters by key
(``THINCServer.pipeline_stats()``, the driver's and the client's
``stats``) to fill the ledger's count rows.  A renamed or dropped key
would fail only the benchmark's own smoke run; reading them all here on
a drawn, settled rig makes it fail tier-1 instead.
"""

import importlib.util
import sys
from numbers import Number
from pathlib import Path

import pytest

from repro.net import LAN_DESKTOP

E2E = Path(__file__).resolve().parents[2] / "benchmarks/e2e"


@pytest.fixture
def harness(monkeypatch):
    """``harness.py`` loaded the way ``run.py`` loads it: with its
    directory on ``sys.path`` for its sibling imports."""
    monkeypatch.syspath_prepend(str(E2E))
    siblings = [name for name in ("tracing", "workloads")
                if name not in sys.modules]
    spec = importlib.util.spec_from_file_location("_thincbench_harness",
                                                  E2E / "harness.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for @dataclass
    spec.loader.exec_module(module)
    yield module
    for name in siblings:
        sys.modules.pop(name, None)


def test_every_counter_reads_a_number(harness):
    rig = harness.Rig(64, 48, LAN_DESKTOP)
    screen = rig.ws.screen
    rig.ws.fill_rect(screen, screen.bounds, (200, 40, 40, 255))
    assert rig.settle(1.0)
    counters = harness._counters(rig)
    assert counters
    bad = {key: value for key, value in counters.items()
           if not isinstance(value, Number)}
    assert not bad, bad
