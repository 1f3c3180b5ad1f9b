"""One description of a run, one oracle over it.

THINC's correctness claim is one sentence: translated commands, however
they are evicted, merged, clipped, scheduled, split, resized or
replayed, leave the stateless client's framebuffer equal to the
server's once the pipe drains.  A :class:`Scenario` is a serialisable
description of a run that tests it; :meth:`Scenario.build` is the one
place in the tree that wires loop → server → window server → connection
→ client; the :class:`Run` it returns plays the op script, settles
(:meth:`Run.quiesce`) and judges (:meth:`Run.check`, the one convergence
oracle — docs/TESTING.md explains each clause).  A scenario round-trips
through JSON, so a failing example is one file ``python -m repro
replay`` re-runs.

Cluster rank, so ``fuzz``, ``bench``, ``cli``, the examples and
``tests/`` may all import it.  Out of scope: ``benchmarks/e2e/
workloads.Rig`` (benchmark paths are frozen) and ``bench/testbed.py``'s
three runners (eight platforms through ``make_platform``, one of them
THINC).  A scenario describes a test run; it is not an option surface
and adds no parameter to any server, config, budget or plane.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from ..codec import LinkPosture
from ..core import THINCClient, THINCServer, sanitizer
from ..core.fanout import MODE_TILE
from ..core.governor import AdmissionDenied, Budget, ServerBudget
from ..core.qos import QosConfig
from ..core.resilience import ResilienceConfig, ResilientClient
from ..display import WindowServer
from ..net import Connection, EventLoop, LAN_DESKTOP, PacketMonitor, faults
from ..net.link import LinkParams
from ..protocol.limits import LIMITS
from ..region import Rect
from ..workloads.scripted import WORKLOADS, seeded_draw
from .coordinator import ShardCoordinator

__all__ = ["Scenario", "ClientSpec", "Op", "Run", "ScenarioFailure",
           "pixel_mismatch", "FAST_LIVENESS"]

#: Resilience tuning every rig shares: liveness fast enough that a
#: severed pipe becomes a redial within a run of a few simulated seconds.
FAST_LIVENESS = ResilienceConfig(
    heartbeat_interval=0.1, liveness_timeout=0.35, check_interval=0.05,
    backoff_base=0.05, backoff_jitter=0.2, detach_window=5.0)


class ScenarioFailure(AssertionError):
    """:meth:`Run.check` found violations; the message lists them."""


def pixel_mismatch(fb, want: np.ndarray) -> Optional[str]:
    """The pixel clause: how a client framebuffer fails to equal the
    *want* pixels of its view, or None when it does equal them."""
    if fb is None or fb.data.shape != want.shape:
        return (f"holds {'no' if fb is None else fb.data.shape[1::-1]} "
                f"framebuffer, its view is {want.shape[1::-1]}")
    differ = int(np.any(fb.data != want, axis=-1).sum())
    return f"diverged from the screen ({differ} pixels differ)" \
        if differ else None


@dataclass(frozen=True)
class ClientSpec:
    """One client.  *resilient* clients dial through the resilience
    plane (always, behind a relay) and reconnect; plain ones attach
    once.  *faults* are :mod:`repro.net.faults` events in absolute
    time, applied to every connection the client ever dials; *config*
    is the client side's resilience tuning when it is not the server's."""

    link: LinkParams = LAN_DESKTOP
    viewport: Optional[Tuple[int, int]] = None
    resilient: bool = False
    faults: Tuple[object, ...] = ()
    fault_seed: int = 0
    send_buffer: Optional[int] = None
    config: Optional[ResilienceConfig] = None
    trace: bool = False


@dataclass(frozen=True)
class Op:
    """One timed operation of *kind* (docs/TESTING.md lists them) by or
    on ``Run.clients[client]``."""

    t: float
    kind: str
    client: int = 0
    args: Tuple = ()


_TYPES = {cls.__name__: cls for cls in (
    ClientSpec, Op, LinkParams, ResilienceConfig, QosConfig, Budget,
    ServerBudget, faults.LossBurst, faults.Stall, faults.Partition,
    faults.Disconnect, faults.Corruption)}


def _plain(value):
    if dataclasses.is_dataclass(value):
        return {"type": type(value).__name__,
                **{f.name: _plain(getattr(value, f.name))
                   for f in dataclasses.fields(value)}}
    if isinstance(value, bytes):
        return {"hex": value.hex()}
    if isinstance(value, dict):
        return {"map": {key: _plain(item) for key, item in value.items()}}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"{value!r} has no place in a scenario bundle")


def _revive(value):
    if isinstance(value, list):
        return tuple(_revive(item) for item in value)
    if not isinstance(value, dict):
        return value
    if "hex" in value:
        return bytes.fromhex(value["hex"])
    if "map" in value:
        return {key: _revive(item) for key, item in value["map"].items()}
    fields = {key: _revive(item) for key, item in value.items()}
    return _TYPES[fields.pop("type")](**fields)


@dataclass(frozen=True)
class Scenario:
    """A run, as data.  ``shards == 0`` is one bare server; *server*
    holds keyword arguments ``THINCServer`` / ``ShardCoordinator``
    already take (``resilience`` defaults to :data:`FAST_LIVENESS` when
    a client needs the plane; an ``encrypt_key`` keys the clients too).
    *workload* is ``(key of WORKLOADS, its parameters)``, scheduled
    identically on every screen at build time.  *settle* is the idle
    stretch :meth:`Run.quiesce` grants after the last op, scripted draw
    and fault window."""

    width: int = 96
    height: int = 64
    shards: int = 0
    server: dict = field(default_factory=dict)
    clients: Tuple[ClientSpec, ...] = (ClientSpec(),)
    workload: Tuple = ()
    ops: Tuple[Op, ...] = ()
    settle: float = 12.0

    def build(self) -> "Run":
        return Run(self)

    def to_json(self) -> str:
        return json.dumps(_plain(self), indent=1)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return _revive(json.loads(text))


_TYPES["Scenario"] = Scenario


class _LivePlan(faults.FaultPlan):
    """A plan the ``fault`` op extends mid-run: windows are in absolute
    time, so one added at its start acts exactly like a planned one."""

    def add(self, event) -> None:
        self.events += (event,)


#: The ops that are a client writing up its own pipe: ``(viewer, args)``.
_REQUESTS = {
    "resize": lambda viewer, args: viewer.request_resize(*args),
    "zoom": lambda viewer, args: viewer.request_zoom(Rect(*args)),
    # () subscribes as a mirror, (cols, rows, index) as a wall tile.
    "subscribe": lambda viewer, args: viewer.request_subscribe(
        *((MODE_TILE,) + args if args else ())),
    "disconnect": lambda viewer, args: viewer.connection.close(),
}


class Run:
    """A built scenario: ``loop``, ``monitor``, ``servers`` (``coord``
    behind a relay, else None), ``screens``, and per client spec
    ``clients`` (a ``THINCClient`` or ``ResilientClient``) and ``links``
    (the plain client's connection, the resilient one's ``dial``)."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.loop = loop = EventLoop()
        self.monitor = PacketMonitor()
        size = (scenario.width, scenario.height)
        kw = dict(scenario.server)
        if scenario.shards or any(c.resilient for c in scenario.clients):
            kw.setdefault("resilience", FAST_LIVENESS)
        self.coord = ShardCoordinator(loop, scenario.shards, *size, **kw) \
            if scenario.shards else None
        self.servers = self.coord.shards if self.coord else \
            [THINCServer(loop, *size, **kw)]
        self.screens = [WindowServer(*size, driver=server.driver,
                                     clock=loop.clock)
                        for server in self.servers]
        self.clients: list = []
        self.links: list = []
        self.gone: set = set()  # indexes of detached clients
        self.applied: List[Op] = []
        self.noted: List[str] = []  # violations seen while an op ran
        self.hostile = {"conn": None, "redials": 0, "denied": 0}
        self.players: list = []
        self._plans: List[_LivePlan] = []
        self._cursor = 0
        for spec in scenario.clients:
            self.attach(spec)
        if scenario.workload:
            self._op_play(Op(0.0, "play", args=scenario.workload))

    def attach(self, spec: ClientSpec) -> None:
        """Wire one more client in: every client of the scenario at
        build time, and the ``attach`` op."""
        server = self.servers[0]
        key = self.scenario.server.get("encrypt_key")
        plan = _LivePlan(spec.faults, spec.fault_seed)
        if spec.resilient or self.coord is not None:
            accept = (self.coord.relay if self.coord
                      else server.resilience).accept
            link = faults.dial_factory(
                self.loop, spec.link,
                lambda conn: accept(conn, spec.viewport),
                monitor=self.monitor, plan=plan,
                send_buffer=spec.send_buffer, record_trace=spec.trace)
            client = ResilientClient(
                self.loop, link, viewport=spec.viewport, decrypt_key=key,
                config=spec.config or server.resilience.config,
                seed=len(self.clients))
            client.start()
        else:
            link = faults.FaultyConnection(
                self.loop, spec.link, monitor=self.monitor,
                send_buffer=spec.send_buffer, plan=plan,
                record_trace=spec.trace)
            server.attach_client(link, viewport=spec.viewport)
            client = THINCClient(self.loop, link, decrypt_key=key)
        self.clients.append(client)
        self.links.append(link)
        self._plans.append(plan)

    def viewer(self, i: int) -> THINCClient:
        return getattr(self.clients[i], "client", self.clients[i])

    def home(self, i: int):
        """``(shard index, session)`` serving client *i* now; the
        session is None while no shard holds one for it."""
        client = self.clients[i]
        if not isinstance(client, ResilientClient):
            return 0, next((s for s in self.servers[0].sessions
                            if s.connection is self.links[i]), None)
        shard = self.coord.route_token(client.token) if self.coord else 0
        if shard is None or not client.token:
            return shard, None
        guard = self.servers[shard].resilience.guards.get(client.token)
        return shard, guard.session if guard is not None else None

    def script(self) -> Scenario:
        """The scenario as actually run: ops in applied order."""
        return replace(self.scenario, ops=tuple(self.applied))

    # -- running -------------------------------------------------------------

    def apply(self, op: Op) -> None:
        """Run to ``op.t`` and perform *op*.  A request by a client with
        no pipe to write it on is a casualty of the outage, not an
        error."""
        self.loop.run_until(max(op.t, self.loop.now))
        self.applied.append(op)
        viewer = self.viewer(op.client)
        if op.kind not in _REQUESTS:
            getattr(self, "_op_" + op.kind)(op)
        elif viewer.connection is not None:
            _REQUESTS[op.kind](viewer, op.args)

    def run_until(self, t: float) -> None:
        ops = self.scenario.ops
        while self._cursor < len(ops) and ops[self._cursor].t <= t:
            self._cursor += 1
            self.apply(ops[self._cursor - 1])
        self.loop.run_until(max(t, self.loop.now))

    def quiesce(self) -> float:
        """Finish the script, stop the clips, then let ``settle`` idle
        seconds pass after the last op, scripted draw and fault window.
        Returns when the loop ran out of events, if it did sooner."""
        self.run_until(max([self.loop.now] + [
            op.t for op in self.scenario.ops[self._cursor:]]))
        self._op_stop(None)
        busy = [plan.last_event_end() for plan in self._plans]
        if self.scenario.workload:
            busy.append(self.scenario.workload[1].get("end", 0.0))
        calm = max([self.loop.now] + busy) + self.scenario.settle
        idle_at = self.loop.run_until_idle(max_time=calm)
        self.loop.run_until(calm)
        return idle_at

    # -- ops that are not a client's own request -----------------------------

    def _op_quiet(self, op) -> None:
        pass

    def _op_draw(self, op) -> None:
        for ws in self.screens:
            seeded_draw(ws, *op.args)

    def _op_play(self, op) -> None:
        kind, params = op.args
        self.players += [WORKLOADS[kind](self.loop, ws, **params)
                         for ws in self.screens]

    def _op_stop(self, op) -> None:
        for player in self.players:
            if hasattr(player, "max_frames"):  # a clip: cut it here
                player.max_frames = player.frames_put

    def _op_report(self, op) -> None:
        """The client's QOS_REPORT, ``args[0]`` the source frame rate."""
        viewer, now = self.viewer(op.client), self.loop.now
        for sid, stats in list(viewer.video_stats.items()):
            if stats.frames_received and viewer.connection is not None:
                viewer.send_qos_report(sid, max(1, int(now * op.args[0])),
                                       max(now, 1e-3))

    def _op_attach(self, op) -> None:
        self.attach(*op.args)

    def _op_fault(self, op) -> None:
        self._plans[op.client].add(*op.args)

    def _op_detach(self, op) -> None:
        shard, session = self.home(op.client)
        self.gone.add(op.client)
        if isinstance(self.clients[op.client], ResilientClient):
            self.clients[op.client].stop()
        if self.viewer(op.client).connection is not None:
            self.viewer(op.client).connection.close()
        if session is not None:
            self.servers[shard].detach_client(session)

    def _op_unsubscribe(self, op) -> None:
        shard, session = self.home(op.client)
        if session is not None:
            self.servers[shard].fanout.unsubscribe(session)

    def _op_migrate(self, op) -> None:
        """Move the client's session ``args[0]`` shards along.  A target
        refusing admission is a legal outcome that must change nothing;
        a move that lands must carry the fan-out subscription."""
        source, session = self.home(op.client)
        if session is None:
            return  # nothing attached to move
        target = (source + op.args[0]) % len(self.servers)
        fanout = self.servers[source].fanout
        was = (fanout.is_subscriber(session), fanout.is_tile(session))
        try:
            session = self.coord.migrate(self.clients[op.client].token,
                                         target)
        except AdmissionDenied:
            if self.home(op.client) != (source, session):
                self.noted.append(f"ownership: refused migration of "
                                  f"client {op.client} moved it anyway")
            return
        fanout = self.servers[target].fanout
        if (fanout.is_subscriber(session), fanout.is_tile(session)) != was:
            self.noted.append(
                f"membership: client {op.client} migrated to shard "
                f"{target} and its subscription did not")

    def _op_hostile(self, op) -> None:
        """Write ``args[0]`` up a hostile co-resident connection,
        dialled afresh when ``args[1]`` says so or the last one is gone
        or quarantined (a length-lying frame makes the parser wait for
        ever, hiding every later frame on the same pipe)."""
        data, fresh = op.args
        state, server = self.hostile, self.servers[0]
        session = next((s for s in server.sessions
                        if s.connection is state["conn"]), None) \
            if state["conn"] is not None else None
        if fresh or session is None or session.quarantined:
            if session is not None:
                server.detach_client(session)
            state["redials"] += 1
            state["conn"] = Connection(self.loop, LAN_DESKTOP)
            try:
                (self.coord.relay.accept if self.coord
                 else server.attach_client)(state["conn"])
            except AdmissionDenied:
                state["denied"] += 1
                state["conn"] = None
        if state["conn"] is not None:
            state["conn"].up.write(data[:state["conn"].up.writable_bytes()])

    # -- the oracle ----------------------------------------------------------

    def check(self, twin: Optional["Run"] = None) -> str:
        """Raise :class:`ScenarioFailure` on any violation; otherwise
        say what held."""
        found = self.violations(twin)
        if found:
            raise ScenarioFailure("\n".join(found))
        return (f"{len(self.clients) - len(self.gone)} clients on "
                f"{len(self.servers)} servers hold at t={self.loop.now:.3f}"
                f" after {len(self.applied)} ops")

    def violations(self, twin: Optional["Run"] = None) -> List[str]:
        """Every broken clause, each ``"<invariant>: ..."``.  With
        *twin* (an undisturbed run of the same displays), each client
        must also match the twin's pixel for pixel."""
        out = list(self.noted)
        for shard, server in enumerate(self.servers):
            out += self._check_server(f"shard {shard}", server)
        for i in range(len(self.clients)):
            if i not in self.gone:
                out += self._check_client(i, twin)
        return out

    def _check_client(self, i: int, twin) -> List[str]:
        who, client, viewer = f"client {i}", self.clients[i], self.viewer(i)
        shard, session = self.home(i)
        if session is None or session.detached or session.quarantined \
                or not getattr(client, "attached", True):
            return [f"liveness: {who} holds no attached session"]
        # Liveness: nothing queued, every sticky flag back at rest.
        sticky = {"pending": session.pending(), "degraded": session.degraded,
                  "shed_display": session.shed_display,
                  "qos_rung": session.qos_rung,
                  "posture": self.servers[shard].health.posture(session)
                  is LinkPosture.DEGRADED}
        out = [f"liveness: {who} still has {name}={value} after an idle "
               f"stretch on a healthy link"
               for name, value in sticky.items() if value]
        if viewer.stats["seq_gaps"]:
            out.append(f"sequence: {who} saw {viewer.stats['seq_gaps']} "
                       f"sequence gaps")
        owners = [k for k, server in enumerate(self.servers)
                  if self.coord and client.token in server.resilience.guards]
        if self.coord and owners != [shard]:
            out.append(f"ownership: token {client.token} of {who} is "
                       f"routed to shard {shard} and held by {owners}")
        # Pixels: a 1:1 view (a tile, say) against its crop of the owning
        # screen, a scaled view against a same-viewport twin.
        view = session.scaler.view
        if (session.scaler.sx, session.scaler.sy) == (1.0, 1.0):
            want = self.screens[shard].screen.fb.data[
                view.y:view.y + view.height, view.x:view.x + view.width]
        else:
            want = self._scaled_twin(shard, session, viewer)
        problem = pixel_mismatch(viewer.fb, want)
        if problem is not None:
            out.append(f"pixel: {who} on shard {shard} {problem}")
        elif twin is not None and pixel_mismatch(twin.viewer(i).fb, want):
            out.append(f"twin: {who} differs from the undisturbed twin")
        return out

    def _scaled_twin(self, shard: int, session, viewer) -> np.ndarray:
        """What an undisturbed same-viewport client shows of this
        screen.  Incremental resampling depends on when each refresh
        happened, so both sides take one refresh of the view first: what
        is compared, exactly, is the disturbed session's delivery path
        (geometry, cipher, sequence, encoding posture)."""
        view = session.scaler.view
        twin = Scenario(self.scenario.width, self.scenario.height, clients=(
            ClientSpec(viewport=tuple(session.viewport)),)).build()
        ws = twin.screens[0]
        ws.put_image(ws.screen, ws.screen.bounds,
                     self.screens[shard].screen.fb.data.copy())
        twin.clients[0].request_zoom(view)
        twin.loop.run_until_idle()
        for run, client in ((twin, twin.clients[0]), (self, viewer)):
            client.request_refresh(view)
            run.loop.run_until_idle(max_time=run.loop.now + 4.0)
        return twin.clients[0].fb.data

    def _check_server(self, where: str, server) -> List[str]:
        budget, sessions = server.governor.budget, server.sessions
        plane, fanout = server.resilience, server.fanout
        # Budgets: every reservoir within its line at the end.
        sized = [(len(sessions), server.governor.server_budget.max_sessions,
                  "session table"),
                 (server.plane.cache_size(), server.plane.cache_entries,
                  "prepare cache")]
        for s in sessions:
            sized += [
                (s.buffer.pending_bytes(), budget.evict_queue_bytes,
                 "command queue bytes"),
                (s.audio_backlog_bytes, budget.max_audio_backlog_bytes,
                 "audio backlog bytes"),
                (s.control_backlog_bytes, budget.max_control_backlog_bytes,
                 "control backlog bytes"),
                (s._parser.pending_bytes, LIMITS.max_uplink_pending_bytes,
                 "parser residue bytes")]
        out = [f"budget: {what} on {where} ended at {value}, budget is {cap}"
               for value, cap, what in sized if value > cap]
        # Conservation: a queue accounts for every command it took.  A
        # clip adds fragments (residue < 0); the wholesale clears of a
        # coalesce, queue drop or snapshot resync are counted nowhere.
        queues = [(q, 0) for q in server.driver._offscreen.values()]
        if not (server.governor.stats.coalesces or plane and (
                plane.stats.queues_dropped or plane.stats.resyncs_snapshot)):
            queues += [(s.buffer.queue, s.buffer.stats["commands_out"])
                       for s in sessions]
        for queue, delivered in queues:
            stats = queue.stats
            residue = (stats["added"] - stats["merged"] - stats["evicted"]
                       - delivered - len(queue))
            if residue > 0 or (residue and not stats["clipped"]):
                out.append(f"conservation: a queue on {where} cannot "
                           f"account for {residue} commands ({stats}, "
                           f"{delivered} delivered, {len(queue)} queued)")
            problem = queue.audit_structures() if queue._sanitizer or \
                not sanitizer.enabled() else "sanitizer enabled, not armed"
            if problem is not None:
                out.append(f"sanitizer: a queue on {where}: {problem}")
        # Membership: plane accounting equals plane membership, and no
        # plane remembers a session the server no longer holds.
        if fanout.stats["subscribed"] - fanout.stats["unsubscribed"] \
                != len(fanout.subscribers()):
            out.append(f"membership: fan-out counters {fanout.stats} on "
                       f"{where} disagree with its "
                       f"{len(fanout.subscribers())} subscribers")
        holders = {"fan-out": fanout.subscribers(),
                   "link health": server.health._memo,
                   "resilience": [guard.session for guard
                                  in plane.guards.values()] if plane else ()}
        return out + [f"membership: {name} on {where} remembers a session "
                      f"the server no longer holds"
                      for name, held in holders.items()
                      if set(held) - set(sessions)]
