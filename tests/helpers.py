"""Tuple-returning adapters over :class:`repro.cluster.scenario.Scenario`.

The rigs themselves are built in one place, ``Scenario.build()``; these
names survive because ~100 call sites unpack their tuples, and
rewriting those would be pure churn (docs/TESTING.md maps each retired
builder to its scenario).  Plans on resilient rigs are absolute-time and
shared by every dial; drive resilient and shard rigs with
``loop.run_until(t)`` — their timers never let ``run_until_idle``
return.
"""

import zlib
from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

from repro.cluster.scenario import ClientSpec, Scenario, pixel_mismatch
from repro.core.delivery import ClientBuffer
from repro.net import LAN_DESKTOP
from repro.protocol import compression
from repro.workloads.scripted import scripted_workload  # noqa: F401

RED = (255, 0, 0, 255)
GREEN = (0, 255, 0, 255)
BLUE = (0, 0, 255, 255)
WHITE = (255, 255, 255, 255)
BLACK = (0, 0, 0, 255)


def client_spec(link=LAN_DESKTOP, plan=None, **kw):
    """A :class:`ClientSpec` whose faults are a ``FaultPlan``'s."""
    return ClientSpec(link, faults=plan.events if plan else (),
                      fault_seed=plan.seed if plan else 0, **kw)


def _server_kw(server_kw, encrypt=False, config=None):
    extra = {"encrypt_key": b"thinc-test-key"} if encrypt else {}
    return dict(server_kw, **extra, **({"resilience": config}
                                       if config else {}))


def make_rig(width=96, height=64, link=LAN_DESKTOP, viewport=None,
             encrypt=False, send_buffer=None, **server_kw):
    """``(loop, conn, mon, server, ws, client)``: one plain client."""
    loop, mon, server, ws, (client,) = make_multi_rig(
        [viewport], width, height, link, send_buffer=send_buffer,
        **_server_kw(server_kw, encrypt))
    return loop, client.connection, mon, server, ws, client


def make_multi_rig(viewports, width=96, height=64, link=LAN_DESKTOP,
                   send_buffer=None, **server_kw):
    """``(loop, mon, server, ws, clients)``: a client per viewport."""
    run = Scenario(width, height, server=server_kw, clients=tuple(
        ClientSpec(link, viewport, send_buffer=send_buffer)
        for viewport in viewports)).build()
    return run.loop, run.monitor, run.servers[0], run.screens[0], run.clients


def make_resilient_rig(width=96, height=64, link=LAN_DESKTOP, plan=None,
                       encrypt=False, send_buffer=None, config=None,
                       client_config=None, record_trace=False, **server_kw):
    """``(loop, dial, server, ws, rc)``: one reconnecting client whose
    first dial happens at t=0."""
    run = Scenario(width, height, server=_server_kw(
        server_kw, encrypt, config), clients=(client_spec(
            link, plan, resilient=True, send_buffer=send_buffer,
            config=client_config, trace=record_trace),)).build()
    return run.loop, run.links[0], run.servers[0], run.screens[0], \
        run.clients[0]


def make_shard_rig(shards=2, clients=2, width=96, height=64,
                   link=LAN_DESKTOP, plan=None, config=None, end=1.5,
                   workload_seed=7, schedule_workloads=True, **coord_kw):
    """``(loop, coord, screens, rcs)``: N shards behind a relay, every
    screen running the same scripted workload (mirrored, so a migrated
    session has an exact twin)."""
    run = Scenario(width, height, shards, _server_kw(coord_kw, config=config),
                   (client_spec(link, plan),) * clients,
                   ("scripted", {"end": end, "seed": workload_seed})
                   if schedule_workloads else ()).build()
    return run.loop, run.coord, run.screens, run.clients


def assert_pixel_identical(client, ws):
    """The oracle's pixel clause for one 1:1 client of one screen."""
    problem = pixel_mismatch(client.fb, ws.screen.fb.data)
    assert problem is None, f"pixel: client {problem}"


@contextmanager
def deflate_spy():
    """The size of every buffer ``repro.protocol.compression`` hands to
    DEFLATE while the block runs, ``zlib.compress`` and
    ``compressobj().compress`` alike, in call order."""
    fed = []

    def spy(method):
        def wrapped(data, *args, **kw):
            fed.append(memoryview(data).nbytes)
            return method(data, *args, **kw)
        return wrapped

    def compressobj(*args, **kw):
        obj = zlib.compressobj(*args, **kw)
        return SimpleNamespace(compress=spy(obj.compress), flush=obj.flush)

    with mock.patch.object(compression, "zlib", SimpleNamespace(**{
            **vars(zlib), "compress": spy(zlib.compress),
            "compressobj": compressobj})):
        yield fed


@contextmanager
def buffered_spy():
    """Every command a session's ``ClientBuffer`` takes in while the
    block runs, in call order (a flush split's rest is not taken in:
    it replaces its command in place)."""
    buffered, add = [], ClientBuffer.add

    def spy(buffer, command, now=0.0):
        buffered.append(command)
        add(buffer, command, now)

    with mock.patch.object(ClientBuffer, "add", spy):
        yield buffered
