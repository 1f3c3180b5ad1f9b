"""A slow subscriber is an ordinary slow session.

Fan-out is routing: a subscriber takes its prepared clones straight
into its own client buffer, so the buffer's eviction and the governor's
queue-bytes ladder (``tests/core/test_governor.py`` runs its queue
ladder cases subscribed as well) are all that stand between a slow
viewer and the server.  Two properties follow, both stated against
plain sessions doing the same thing:

* a command is prepared once per equivalence class whatever the
  neighbours' links do — no viewer's backlog can push shared work out
  of the prepare cache; and
* a mirror SUBSCRIBE is one refresh and nothing else — from the first
  post-subscribe command on, the subscriber's downlink carries exactly
  the bytes a plain twin's would.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.net import LAN_DESKTOP
from repro.region import Rect
from tests.fanout.rig import make_broadcast_rig
from tests.helpers import assert_pixel_identical

W, H = 320, 240

#: One full screen of incompressible pixels (300 KiB) takes this link
#: most of a minute.
TRICKLE = replace(LAN_DESKTOP, bandwidth_bps=64_000)


def _viewers(links, **rig_kw):
    """``make_broadcast_rig`` at this file's geometry, one viewer per
    link, with the attach (and SUBSCRIBE) refreshes already drained."""
    loop, mon, server, ws, clients = make_broadcast_rig(
        len(links), width=W, height=H, link=links, **rig_kw)
    loop.run_until(0.5)
    assert not server.pending()
    return loop, mon, server, ws, clients


def _busy_desktop(loop, ws, photos, seed=5, start=0.5):
    """A full-screen incompressible image, then *photos* random 96x96
    ones 10 ms apart."""
    rng = np.random.default_rng(seed)

    def photo(rect):
        ws.put_image(ws.screen, rect, rng.integers(
            0, 256, (rect.height, rect.width, 4), dtype=np.uint8))

    loop.schedule_at(start, lambda: photo(ws.screen.bounds))
    for i in range(photos):
        loop.schedule_at(start + 0.01 * (i + 1), lambda: photo(Rect(
            int(rng.integers(0, W - 96)), int(rng.integers(0, H - 96)),
            96, 96)))


def test_prepared_once_whatever_the_neighbours_do():
    """Two LAN subscribers and a 64 kbit/s one (attached last) share
    one viewport class: every command is one miss, however far the
    slow viewer falls behind."""
    loop, mon, server, ws, clients = _viewers(
        (LAN_DESKTOP, LAN_DESKTOP, TRICKLE))
    before = server.stats
    _busy_desktop(loop, ws, photos=100)
    loop.run_until(1.6)
    after = server.stats
    commands = after["commands_translated"] - before["commands_translated"]
    assert commands > 100
    assert after["prepare_cache_misses"] - before[
        "prepare_cache_misses"] == commands
    assert after["prepare_cache_hits"] - before[
        "prepare_cache_hits"] == 2 * commands
    for client in clients[:2]:
        assert_pixel_identical(client, ws)


def _overdrawn(link, send_buffer, subscribe):
    """The busy desktop, then one fill that overwrites all of it."""
    loop, mon, server, ws, (client,) = _viewers(
        (link,), subscribe=subscribe, send_buffer=send_buffer)
    base = mon.total_bytes("server->client")
    _busy_desktop(loop, ws, photos=4)
    loop.schedule_at(0.8, lambda: ws.fill_rect(
        ws.screen, ws.screen.bounds, (40, 90, 160, 255)))
    loop.run_until_idle(max_time=600)
    assert_pixel_identical(client, ws)
    return mon.total_bytes("server->client") - base, loop.now


# The slow link gets a modem's socket buffer, not a LAN card's: bytes
# already handed to the transport are past evicting.
@pytest.mark.parametrize("link, send_buffer",
                         ((LAN_DESKTOP, None), (TRICKLE, 4096)),
                         ids=("lan", "64kbit"))
def test_mirror_subscribe_is_one_refresh_and_nothing_else(link, send_buffer):
    """On the slow link the fill lands while the first image is still
    buffered and evicts it; a reservoir in front of the buffer would
    hide the fill from that eviction and ship the stale image."""
    assert _overdrawn(link, send_buffer, subscribe=True) \
        == _overdrawn(link, send_buffer, subscribe=False)
