"""The scenario state machine: real operations as rules, the oracle as
the teardown invariant.

Each example builds one of :data:`BASES`, applies a random sequence of
ops to the live :class:`~repro.cluster.scenario.Run` — every op lands
in ``run.applied``, so a failure is dumped as a replayable bundle — and
ends with ``quiesce()`` → ``check()``.  Subclasses pin ``BASES`` to aim
the same rules at one plane (tests/scenario/test_seeded_breaks.py).
"""

import collections
import os
from dataclasses import replace

from hypothesis import event
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 precondition, rule)

from repro.cluster.scenario import ClientSpec, Op, Scenario
from repro.core.governor import Budget, ServerBudget
from repro.core.qos import QosConfig
from repro.core.resilience import ResilientClient
from repro.fuzz import Mutator, seed_corpus
from repro.net import LAN_DESKTOP, WAN_DESKTOP
from repro.net.faults import LossBurst, Partition
from repro.net.link import PDA_80211G

W, H = 64, 48
THIN = replace(PDA_80211G, name="256k thin", bandwidth_bps=256e3)
QOS = QosConfig(seed=7, recover_polls=3, recover_jitter=1)
#: ~0.65 of the thin link: healthy alone, underwater once congested.
CLIP = ("clip", {"width": 32, "height": 18, "fps": 24, "duration": 3.0,
                 "dst": (16, 16, 48, 32)})
#: Where the (shrunk, when hypothesis is done) failing scenario lands.
BUNDLE = os.path.join(".hypothesis", "failing-scenario.json")

#: A desktop painted once before the ops start.  The first base leaves
#: its screen never drawn, so attaches, resizes and refreshes over a
#: black or video-only screen are explored too.  The others stay
#: painted: the second base's degrade ladder needs that display traffic
#: (the liveness break in tests/scenario/test_seeded_breaks.py).
PAINTED = ("scripted", {"end": 0.3})

BASES = (
    # One bare server, QoS on: a thin-link viewer, a LAN viewer and a
    # reconnecting WAN viewer share it.
    Scenario(W, H, server={"qos": QOS}, clients=(
        ClientSpec(THIN), ClientSpec(),
        ClientSpec(WAN_DESKTOP, resilient=True))),
    # The same server under a budget tight enough to degrade and shed.
    Scenario(W, H, workload=PAINTED,
             server={"budget": Budget(degrade_queue_bytes=256)},
             clients=(ClientSpec(THIN, resilient=True), ClientSpec())),
    # Two shards behind the relay, QoS on, two sessions each at most —
    # so a migration can be refused.
    Scenario(W, H, shards=2, workload=PAINTED,
             clients=(ClientSpec(THIN),) + (ClientSpec(),) * 2,
             server={"qos": QOS,
                     "server_budget": ServerBudget(max_sessions=2)}),
    # The same fabric with room to spare and one viewer per shard.
    Scenario(W, H, shards=2, workload=PAINTED, server={"qos": QOS},
             clients=(ClientSpec(THIN), ClientSpec())),
)

#: The feature triples ISSUE 23 wants explored, as op-kind sets (a
#: fault is any of congest / partition / reconnect).
FAULTS = {"fault", "disconnect"}
TRIPLES = {
    "fan-out x migration x fault": ({"subscribe"}, {"migrate"}, FAULTS),
    "QoS x migration x quiet": ({"play"}, {"migrate"}, {"quiet"}),
    "hostile x subscribe x resize": ({"hostile"}, {"subscribe"}, {"resize"}),
}
#: Examples seen per triple (and in all), printed by the test with -s.
explored = collections.Counter()

#: Which live client an op is about — skewed to the first, so that one
#: session often takes the subscribe *and* the fault *and* the move.
clients = st.sampled_from((0, 0, 0, 0, 1, 2, 3))
pauses = st.sampled_from((0.02, 0.1, 0.3))


def op(**strategies):
    """A rule that an aimed subclass may leave out (``ONLY``)."""
    def wrap(fn):
        return precondition(lambda self: not self.ONLY
                            or fn.__name__ in self.ONLY)(
            rule(**strategies)(fn))
    return wrap


def dump(run) -> str:
    os.makedirs(os.path.dirname(BUNDLE), exist_ok=True)
    with open(BUNDLE, "w") as sink:
        sink.write(run.script().to_json())
    return BUNDLE


class ScenarioMachine(RuleBasedStateMachine):
    BASES = BASES
    ONLY = frozenset()  # rule names to keep; empty keeps them all

    def __init__(self):
        super().__init__()
        self.run = None

    @initialize(data=st.data())
    def build(self, data):
        self.run = data.draw(st.sampled_from(self.BASES)).build()
        self.playing = False

    def step(self, kind, client=0, args=(), pause=0.05):
        run = self.run
        live = [i for i in range(len(run.clients)) if i not in run.gone]
        try:
            run.apply(Op(run.loop.now + pause, kind,
                         live[client % len(live)], args))
        except BaseException:
            print(f"\nscenario crashed; replay bundle: {dump(run)}")
            raise

    def resilient(self, client) -> bool:
        live = [c for i, c in enumerate(self.run.clients)
                if i not in self.run.gone]
        return isinstance(live[client % len(live)], ResilientClient)

    # -- display -------------------------------------------------------------

    @op(seed=st.integers(0, 2**16), pause=pauses)
    def draw(self, seed, pause):
        self.step("draw", args=(seed,), pause=pause)

    @op()
    def play_or_stop_clip(self):
        self.playing = not self.playing
        self.step(*(("play", 0, CLIP) if self.playing else ("stop",)))

    # -- sessions ------------------------------------------------------------

    @precondition(lambda self: len(self.run.clients) < min(5, sum(
        s.governor.server_budget.max_sessions for s in self.run.servers)))
    @op(link=st.sampled_from((LAN_DESKTOP, THIN)), resilient=st.booleans(),
          viewport=st.sampled_from((None, (32, 24))))
    def attach(self, link, resilient, viewport):
        self.step("attach", args=(ClientSpec(link, viewport, resilient),))

    @precondition(lambda self: len(self.run.clients) - len(self.run.gone) > 1)
    @op(client=clients)
    def detach(self, client):
        self.step("detach", client)

    @op(client=clients, size=st.sampled_from(
        ((W, H), (W // 2, H // 2), (48, 40), (2 * W, 2 * H))))
    def resize(self, client, size):
        self.step("resize", client, size)

    @op(client=clients, rect=st.sampled_from(
        ((0, 0, 0, 0), (8, 8, 32, 24), (16, 0, 48, 48))))
    def zoom(self, client, rect):
        self.step("zoom", client, rect)

    @op(client=clients, tile=st.sampled_from(
        (None, (), (), (2, 1, 1), (3, 2, 4), (1, 2, 0))))
    def subscribe(self, client, tile):
        """Mirror ``()``, a wall tile ``(cols, rows, index)``, or out."""
        if tile is None:
            self.step("unsubscribe", client)
        else:
            self.step("subscribe", client, tile)

    @precondition(lambda self: self.run.coord is not None)
    @op(client=clients, pause=pauses)
    def migrate(self, client, pause):
        self.step("migrate", client, (1,), pause)

    # -- the network ---------------------------------------------------------

    @op(client=clients, kind=st.sampled_from(
        ("congest", "partition", "reconnect")),
        duration=st.sampled_from((0.2, 0.7)))
    def fault(self, client, kind, duration):
        start = self.run.loop.now + 0.05
        if kind == "congest":
            self.step("fault", client, (LossBurst(start, duration),))
        elif kind == "partition":
            self.step("fault", client, (Partition(start, duration),))
        elif self.resilient(client):
            # (A plain client has no way back from a dead socket.)
            self.step("disconnect", client)

    @op(seed=st.integers(0, 255), fresh=st.booleans())
    def hostile_frame(self, seed, fresh):
        self.step("hostile", args=(
            Mutator(seed, seed_corpus(W, H)).next_case(), fresh))

    @op(seconds=st.sampled_from((0.5, 1.5, 4.0)))
    def go_quiet(self, seconds):
        self.step("quiet", pause=seconds)

    # -- the invariant -------------------------------------------------------

    def teardown(self):
        run = self.run
        if run is None:
            return
        kinds = {op.kind for op in run.applied}
        # (An aimed machine explores nothing new: it counts apart.)
        counts = collections.Counter() if self.ONLY else explored
        counts["examples"] += 1
        for name, needs in TRIPLES.items():
            if all(kinds & need for need in needs):
                counts[name] += 1
                event(name)
        try:
            run.quiesce()
            run.check()
            for server in run.servers:
                stats = server.stats
                counts["rungs down"] += stats.get("qos_rungs_down", 0)
                counts["degrades"] += stats["governor_degrade_entered"]
                counts["quarantines"] += stats["governor_quarantined"]
                resil = server.resilience.stats
                counts["resyncs"] += (resil["resyncs_replay"]
                                      + resil["resyncs_snapshot"])
            if run.coord is not None:
                counts["migrations"] += len(run.coord.migrations)
        except BaseException:
            print(f"\nscenario failed; replay it with "
                  f"python -m repro replay {dump(run)}")
            raise
