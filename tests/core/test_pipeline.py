"""The staged pipeline and its shared prepare plane.

Sharing scaled/compressed payloads across sessions is only a win if it
is invisible: every client must end up with framebuffers identical to
what a private, unshared preparation path would have produced — across
mixed viewports, shared entries and SRSF reordering — and same-viewport
clients must receive byte-identical wire streams.
"""

import os
import threading
from concurrent.futures import wait
from unittest import mock

import numpy as np
import pytest

from tests.helpers import (BLUE, GREEN, RED, WHITE, assert_pixel_identical,
                           deflate_spy, make_multi_rig as make_rig)
from repro.codec import EncoderPolicy, LinkPosture
from repro.core import THINCClient, THINCServer
from repro.core.session_unit import SessionUnit
from repro.display import WindowServer
from repro.net import Connection, EventLoop, LAN_DESKTOP
from repro.protocol import compression
from repro.protocol.commands import RawCommand
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
        """A hit replays the prepared payload verbatim: two
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
        assert server.plane.stats["cache_hits"] > 0
        assert b"".join(streams[0]) == b"".join(streams[1])

    def test_native_and_scaled_viewports_keep_pixels_exact(self):
        """A native and a scaled viewport prepare every command apart:
        the native client matches the screen and the scaled one a
        dedicated single-client server with its viewport."""
        loop, mon, server, ws, clients = make_rig([None, (48, 32)])
        run_workload(loop, ws, clients)
        assert clients[0].fb.same_as(ws.screen.fb)
        bloop, bmon, bserver, bws, bclients = make_rig([(48, 32)])
        run_workload(bloop, bws, bclients)
        assert clients[1].fb.same_as(bclients[0].fb)

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
        assert server.plane.stats["cache_hits"] > 0
        for client in clients:
            assert client.fb.same_as(ws.screen.fb)


HERE = min(os.sched_getaffinity(0))


def _dispatch(pool, band_bytes=compression._BAND_BYTES):
    """One opaque RAW sent to two receivers with the same viewport, on
    *pool*: ``(loop, clients, raw, clones, pixels)``, nothing run yet.
    The RAW is prepared as itself (an identity viewport), so its
    payload cell is the one its two clones share."""
    loop, _, server, _, clients = make_rig([None, None])
    pixels = np.random.default_rng(5).integers(0, 256, (24, 32, 4),
                                               dtype=np.uint8)
    pixels[..., 3] = 255
    raw = RawCommand(Rect(8, 8, 32, 24), pixels)
    clones = []
    enqueue = SessionUnit.enqueue_prepared

    def recording(session, command, ready_at):
        clones.append(command)
        enqueue(session, command, ready_at)

    with mock.patch.object(compression, "_pool", pool), \
            mock.patch.object(compression, "_BAND_BYTES", band_bytes), \
            mock.patch.object(SessionUnit, "enqueue_prepared", recording):
        server.plane.submit(raw, server.sessions)
    return loop, clients, raw, clones, pixels


@pytest.fixture
def pool():
    """One DEFLATE worker, and an event that holds it busy until set."""
    made, release = compression._DeflatePool([HERE]), threading.Event()
    yield made, release
    release.set()
    made.executor.shutdown()


class TestPayloadBesideTheLoop:
    """The prepare stage starts a one-band PNG payload on the pool, and
    the command collects it when it enters a session's buffer."""

    @pytest.mark.parametrize("worker_free", [True, False])
    def test_one_deflate_per_dispatch_and_the_same_bytes(self, pool,
                                                         worker_free):
        """With the worker free it DEFLATEs the payload; with it busy
        the loop's thread takes the job back.  Either way the rows
        reach DEFLATE once for both receivers, and every clone carries
        the bytes ``png_compress`` makes of them."""
        workers, release = pool
        if not worker_free:
            workers.executor.submit(release.wait)
        png, threads = compression._png, []

        def recording_png(img, level):
            threads.append(threading.current_thread().name)
            return png(img, level)

        with mock.patch.object(compression, "_png", recording_png), \
                deflate_spy() as fed:
            loop, clients, raw, clones, pixels = _dispatch(workers)
            if worker_free:
                wait([raw._payload._future])
            loop.run_until_idle(max_time=10)
            payloads = [clone._encoded_payload() for clone in clones]
        rows = compression.png_channels(pixels)
        assert fed == [rows.nbytes]
        assert len(threads) == 1
        assert threads[0].startswith("deflate") == worker_free
        assert len(clones) == 2
        assert payloads == [compression.png_compress(rows)] * 2
        for client in clients:
            assert np.array_equal(client.fb.data[8:32, 8:40], pixels)

    @pytest.mark.parametrize("band_bytes", [256, compression._BAND_BYTES])
    def test_a_pending_clone_splits_like_its_original(self, pool,
                                                      band_bytes):
        """Split while its payload is still a job — banded (a cut
        between bands) or one band (the row-granular fallback) — a
        clone gives the head and rest its original gives."""
        workers, release = pool
        workers.executor.submit(release.wait)
        loop, _, raw, (clone, _), pixels = _dispatch(workers, band_bytes)
        with mock.patch.object(compression, "_BAND_BYTES", band_bytes):
            want = compression.png_compress(compression.png_channels(pixels))
            assert raw._payload.payload is None
            overhead = 1 + RawCommand.schema.struct.size
            room = overhead + len(want) // 2
            splits = [cmd.split(room, 0) for cmd in (clone, raw)]
            views = [(head.dest, bytes(head._encoded_payload()),
                      head.wire_size(), rest.dest, rest.wire_size(),
                      bytes(rest._encoded_payload()))
                     for head, rest in splits]
        assert views[0] == views[1]
        assert 0 < views[0][0].height < 24
        assert clone._encoded_payload() == raw._encoded_payload() == want


class TestInstrumentation:
    def test_pipeline_stats_cover_every_stage(self):
        loop, mon, server, ws, clients = make_rig([None, (48, 32)])
        run_workload(loop, ws, clients)
        stats = server.pipeline_stats()
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
        assert stats["flush"]["bytes_out"] > 0
        for session in server.sessions:
            assert session.stats["cpu_time"] >= 0.0
        attributed = sum(s.stats["cpu_time"] for s in server.sessions)
        assert abs(attributed - server.stats["cpu_time"]) < 1e-9

    def test_a_split_raw_counts_each_frame_it_leaves_as(self):
        """A RAW too big for a 2 KiB socket leaves as a head and a rest
        in two flush periods: two messages sent, and the unit's byte
        count is what its endpoint was handed."""
        loop, mon, server, ws, (client,) = make_rig([None],
                                                    send_buffer=2048)
        loop.run_until_idle()
        session = server.sessions[0]
        sent = session.stats["messages_sent"]
        pixels = np.random.default_rng(3).integers(
            0, 256, (8, 96, 4), dtype=np.uint8)
        pixels[..., 3] = 255
        ws.put_image(ws.screen, Rect(0, 0, 96, 8), pixels)
        loop.run_until_idle()
        assert session.buffer.stats["commands_split"] == 1
        assert session.buffer.stats["commands_out"] == 1
        assert session.stats["messages_sent"] - sent == 2
        assert session.stats["bytes_sent"] == \
            client.connection.down.bytes_sent
        assert client.fb.same_as(ws.screen.fb)

    def test_scheduler_counts_orderings(self):
        loop, mon, server, ws, clients = make_rig([None])
        run_workload(loop, ws, clients)
        scheduler = server.sessions[0].buffer.scheduler
        assert scheduler.stats["orderings"] > 0


class TestAdaptiveVariants:
    """Under an adaptive encoder policy a RAW is encoded once per
    posture class, and classes that pick one encoding are one class."""

    def test_a_solid_image_reaches_the_client_as_an_sfill(self):
        loop, mon, server, ws, (client,) = make_rig(
            [None], adaptive_encoding=True)
        loop.run_until_idle()
        kinds = dict(client.stats["commands_by_kind"])
        pixels = np.empty((16, 24, 4), dtype=np.uint8)
        pixels[...] = (10, 200, 30, 255)
        ws.put_image(ws.screen, Rect(8, 8, 24, 16), pixels)
        loop.run_until_idle()
        assert client.stats["commands_by_kind"] == {
            **kinds, "sfill": kinds.get("sfill", 0) + 1}
        assert server.encoder_policy.demotions == 1
        assert_pixel_identical(client, ws)

    def test_postures_that_pick_one_encoding_prepare_once(self):
        loop, mon, server, ws, clients = make_rig(
            [None, None], adaptive_encoding=True)
        loop.run_until_idle()
        lossless, degraded = server.sessions
        server.plane.posture_of = {lossless: LinkPosture.LOSSLESS,
                                   degraded: LinkPosture.DEGRADED}.get
        # Too small for lossy: both postures pick PNG.
        assert 16 * 24 < EncoderPolicy.min_lossy_pixels
        pixels = np.random.default_rng(5).integers(
            0, 256, (16, 24, 4), dtype=np.uint8)
        pixels[..., 3] = 255
        before = dict(server.plane.stats)
        ws.put_image(ws.screen, Rect(8, 8, 24, 16), pixels)
        loop.run_until_idle()
        stats = server.plane.stats
        assert stats["cache_misses"] - before["cache_misses"] == 1
        assert stats["cache_hits"] - before["cache_hits"] == 1
        for client in clients:
            assert client.stats["commands_by_kind"]["raw"] == 1
            assert_pixel_identical(client, ws)
