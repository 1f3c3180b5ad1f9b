"""The staged pipeline and its shared prepare plane.

Sharing scaled/compressed payloads across sessions is only a win if it
is invisible: every client must end up with framebuffers identical to
what a private, unshared preparation path would have produced — across
mixed viewports, cache hits, LRU eviction and SRSF reordering — and
same-viewport clients must receive byte-identical wire streams.
"""

import numpy as np

from tests.helpers import (BLUE, GREEN, RED, WHITE,
                           make_multi_rig as make_rig)
from repro.core import STAGE_NAMES, THINCClient, THINCServer
from repro.core.pipeline import StageStats
from repro.display import WindowServer
from repro.net import Connection, EventLoop, LAN_DESKTOP
from repro.protocol.commands import RawCommand, SFillCommand
from repro.region import Rect

ZOOM_RECT = Rect(16, 8, 48, 32)


def draw_phase(ws, rng):
    """A deterministic mixed workload phase (fills, text, photo, copy)."""
    ws.fill_rect(ws.screen, ws.screen.bounds, WHITE)
    ws.fill_rect(ws.screen, Rect(4, 4, 40, 24), RED)
    ws.draw_text(ws.screen, 6, 8, "pipeline", BLUE)
    ws.put_image(ws.screen, Rect(48, 8, 32, 24),
                 rng.integers(0, 256, (24, 32, 4), dtype=np.uint8))
    ws.copy_area(ws.screen, ws.screen, Rect(4, 4, 24, 16), 60, 40)


def run_workload(loop, ws, clients, zoom=()):
    """Two draw phases with an optional mid-run zoom per client index."""
    rng = np.random.default_rng(7)
    draw_phase(ws, rng)
    loop.run_until_idle(max_time=10)
    for index in zoom:
        clients[index].request_zoom(ZOOM_RECT)
    loop.run_until_idle(max_time=10)
    ws.fill_rect(ws.screen, Rect(20, 30, 30, 20), GREEN)
    ws.put_image(ws.screen, Rect(0, 40, 24, 20),
                 rng.integers(0, 256, (20, 24, 4), dtype=np.uint8))
    loop.run_until_idle(max_time=10)


class TestSharedPrepareExactness:
    def test_mixed_viewports_match_unshared_baselines(self):
        """Native, PDA-scaled and zoomed clients sharing one session all
        converge to the framebuffers a dedicated single-client server
        (where no sharing is possible) produces for their viewport."""
        viewports = [None, (48, 32), None]
        loop, mon, server, ws, clients = make_rig(viewports)
        run_workload(loop, ws, clients, zoom=(2,))
        assert server.stats["prepare_cache_hits"] > 0

        for index, viewport in enumerate(viewports):
            bloop, bmon, bserver, bws, bclients = make_rig([viewport])
            run_workload(bloop, bws, bclients,
                         zoom=(0,) if index == 2 else ())
            assert clients[index].fb.same_as(bclients[0].fb), index

    def test_same_viewport_clients_get_byte_identical_streams(self):
        """A cache hit replays the prepared payload verbatim: two
        same-viewport plaintext clients see identical wire bytes."""
        loop = EventLoop()
        server = THINCServer(loop, 96, 64)
        ws = WindowServer(96, 64, driver=server.driver, clock=loop.clock)
        streams = []
        for _ in range(2):
            conn = Connection(loop, LAN_DESKTOP)
            server.attach_client(conn)
            received = []
            conn.down.connect(received.append)
            streams.append(received)
            THINCClient(loop, conn, headless=True)
        rng = np.random.default_rng(11)
        draw_phase(ws, rng)
        loop.run_until_idle(max_time=10)
        assert server.plane.stats.cache_hits > 0
        assert b"".join(streams[0]) == b"".join(streams[1])

    def test_lru_eviction_keeps_pixels_exact(self):
        """A deliberately tiny prepared-command cache forces constant
        eviction and re-preparation; correctness must not depend on the
        cache at all."""
        loop, mon, server, ws, clients = make_rig([None, (48, 32)])
        server.plane.cache_entries = 2
        run_workload(loop, ws, clients)
        assert server.plane.cache_size() <= 2
        assert clients[0].fb.same_as(ws.screen.fb)
        bloop, bmon, bserver, bws, bclients = make_rig([(48, 32)])
        run_workload(bloop, bws, bclients)
        assert clients[1].fb.same_as(bclients[0].fb)

    def test_cache_hit_preserves_submission_order(self):
        """A hit whose prepared payload was ready long ago must not
        overtake an expensive miss submitted just before it: the buffer
        stage has to see commands in submission order or a stale command
        would survive eviction and win."""
        loop, mon, server, ws, clients = make_rig([None, None])
        ws.fill_rect(ws.screen, ws.screen.bounds, WHITE)
        loop.run_until_idle(max_time=10)
        one, two = server.sessions
        hits_before = server.plane.stats.cache_hits

        green = SFillCommand(Rect(10, 10, 20, 12), GREEN)
        # Pay for the fill on session one: it is now cached.
        server.plane.submit(green, (one,))
        rng = np.random.default_rng(13)
        photo = RawCommand(ws.screen.bounds,
                           rng.integers(0, 256, (64, 96, 4), dtype=np.uint8))
        # Session two: an expensive full-screen RAW (miss, ready only
        # after its compression time) *then* the cached fill (hit, ready
        # immediately).  The fill was submitted last, so it must land on
        # top of the photo.
        server.plane.submit(photo, (two,))
        server.plane.submit(green, (two,))
        assert server.plane.stats.cache_hits == hits_before + 1
        loop.run_until_idle(max_time=10)
        assert np.all(clients[1].fb.data[10:22, 10:30] == GREEN)
        # And outside the fill the photo shows through.
        assert np.all(clients[1].fb.data[40:, :] ==
                      photo.pixels[40:, :])

    def test_eight_clients_prepare_once(self):
        """Misses (and therefore prepare CPU) match the single-client
        run exactly; the other seven lookups per command are hits."""
        results = {}
        for n in (1, 8):
            loop, mon, server, ws, clients = make_rig([None] * n)
            run_workload(loop, ws, clients)
            results[n] = dict(server.stats)
            for client in clients:
                assert client.fb.same_as(ws.screen.fb)
        assert results[8]["prepare_cache_misses"] == \
            results[1]["prepare_cache_misses"]
        assert results[8]["prepare_cache_hits"] == \
            7 * results[8]["prepare_cache_misses"]
        assert results[8]["cpu_time"] == results[1]["cpu_time"]

    def test_encrypted_sessions_share_prepare_but_not_keystream(self):
        """Encryption is per-session (stage 5, after the shared plane):
        prepared payloads are shared while each cipher stream stays
        independent, and both clients still decode pixel-exactly."""
        loop, mon, server, ws, clients = make_rig(
            [None, None], encrypt_key=b"pipeline-key")
        rng = np.random.default_rng(17)
        draw_phase(ws, rng)
        loop.run_until_idle(max_time=10)
        assert server.plane.stats.cache_hits > 0
        for client in clients:
            assert client.fb.same_as(ws.screen.fb)


class TestInstrumentation:
    def test_stage_stats_roundtrip(self):
        stats = StageStats()
        stats.commands_in += 3
        stats.bytes_out += 100
        as_dict = stats.as_dict()
        assert as_dict["commands_in"] == 3
        assert as_dict["bytes_out"] == 100
        total = StageStats()
        total.accumulate(stats)
        total.accumulate(stats)
        assert total.commands_in == 6

    def test_pipeline_stats_cover_every_stage(self):
        loop, mon, server, ws, clients = make_rig([None, (48, 32)])
        run_workload(loop, ws, clients)
        stats = server.pipeline_stats()
        assert set(STAGE_NAMES) <= set(stats)
        # Translation admitted every driver-submitted command...
        assert stats["translate"]["commands_in"] == \
            server.stats["commands_translated"] > 0
        assert stats["translate"]["driver_ops"] > 0
        # ...the plane looked each one up once per session...
        plane = stats["prepare"]
        assert plane["cache_hits"] + plane["cache_misses"] > 0
        assert plane["cpu_seconds"] > 0
        # ...and the per-session stages drained completely.
        assert stats["buffer"]["commands_in"] > 0
        assert stats["buffer"]["queue_depth"] == 0
        assert stats["frame"]["bytes_out"] > 0
        assert stats["flush"]["bytes_out"] >= stats["frame"]["bytes_out"]
        for session in server.sessions:
            assert session.stats["cpu_time"] >= 0.0
        attributed = sum(s.stats["cpu_time"] for s in server.sessions)
        assert abs(attributed - server.stats["cpu_time"]) < 1e-9

    def test_scheduler_counts_orderings(self):
        loop, mon, server, ws, clients = make_rig([None])
        run_workload(loop, ws, clients)
        scheduler = server.sessions[0].buffer.scheduler
        assert scheduler.stats["orderings"] > 0
