"""The oracle re-finds known bugs.

Each test re-seeds, by monkeypatch, one past or plausible defect and
runs the scenario state machine (the ``ci`` profile's step budget, a
fixed example stream, no shrinking) aimed at the plane the defect lives
in: the machine must fail, and with the *named* invariant — so "the
machine passes" (test_state_machine.py) is known to mean something.
"""

import pytest
from hypothesis import Phase, settings
from hypothesis.stateful import run_state_machine_as_test

from repro.cluster.scenario import ScenarioFailure
from repro.core import THINCServer
from repro.core.command_queue import CommandQueue
from repro.core.fanout import BroadcastPlane
from repro.core.governor import Governor
from repro.core.resilience import ResiliencePlane

from .machine import BASES, ScenarioMachine

FIXED = settings(max_examples=150, derandomize=True, database=None,
                 deadline=None, phases=[Phase.generate])


def machine_fails_with(invariant, base, only):
    aimed = type("Aimed", (ScenarioMachine,), {
        "BASES": (BASES[base],), "ONLY": frozenset(only.split())})
    with pytest.raises(ScenarioFailure) as failure:
        run_state_machine_as_test(aimed, settings=FIXED)
    clauses = {line.split(":")[0] for line in str(failure.value).split("\n")}
    assert invariant in clauses, str(failure.value)


def test_degraded_never_cleared_once_quiet_breaks_liveness(monkeypatch):
    # PR 20: the degrade exit was evaluated only on the next display
    # add, which a display gone quiet never makes.
    monkeypatch.setattr(Governor, "after_flush", lambda self, session: None)
    machine_fails_with("liveness", 1, "resize fault go_quiet")


def test_thaw_skipping_fanout_adopt_breaks_membership(monkeypatch):
    monkeypatch.setattr(BroadcastPlane, "adopt",
                        lambda self, session, tile_mode=False: None)
    machine_fails_with("membership", 2, "subscribe migrate")


def test_detach_keeping_the_guard_breaks_membership(monkeypatch):
    # A detached resilient session whose guard survives is a zombie:
    # its redial resyncs into a unit ``submit`` never routes to again.
    monkeypatch.setattr(ResiliencePlane, "drop_guard",
                        lambda self, session: None)
    machine_fails_with("membership", 1, "attach detach go_quiet")


def test_uncounted_eviction_breaks_conservation(monkeypatch):
    real = CommandQueue._evict_under

    def forgetful(self, opaque, newcomer):
        counted = self.stats["evicted"]
        real(self, opaque, newcomer)
        self.stats["evicted"] = counted

    monkeypatch.setattr(CommandQueue, "_evict_under", forgetful)
    # (Video is what evicts: each frame overwrites the last one queued.)
    machine_fails_with("conservation", 0, "draw fault play_or_stop_clip")


def test_stream_end_without_the_repaint_breaks_pixels(monkeypatch):
    # This PR's own find: a stream that ends while a viewer sits on a
    # degraded rung (or under a wall tile) owes it a lossless repaint.
    real = THINCServer.video_teardown

    def no_repaint(self, stream):
        refresh, self._submit_refresh = self._submit_refresh, \
            lambda *args, **kw: None
        try:
            real(self, stream)
        finally:
            self._submit_refresh = refresh

    monkeypatch.setattr(THINCServer, "video_teardown", no_repaint)
    machine_fails_with("pixel", 0,
                       "play_or_stop_clip subscribe fault go_quiet")
