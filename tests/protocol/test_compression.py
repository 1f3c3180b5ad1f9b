"""Tests for RAW-pixel compression codecs."""

import multiprocessing
import os
import sys
import threading
import warnings
import zlib
from itertools import cycle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import kernels
from repro.protocol import compression as comp
from repro.protocol.commands import RawCommand, decode_command
from repro.protocol.schema import FieldRangeError
from repro.region import Rect
from repro.workloads.web import _photo
from tests.helpers import deflate_spy


def random_rgba(w, h, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(h, w, 4), dtype=np.uint8)


def flat_rgba(w, h, value=120):
    return np.full((h, w, 4), value, dtype=np.uint8)


class TestPngModel:
    def test_roundtrip_up_filter(self):
        img = random_rgba(17, 13, seed=1)
        out = comp.png_decompress(comp.png_compress(img))
        assert np.array_equal(out, img)

    def test_flat_content_compresses_hard(self):
        img = flat_rgba(100, 100)
        assert len(comp.png_compress(img)) < img.nbytes / 100

    def test_gradient_beats_plain_zlib(self):
        """The predictive filter should win on smooth content."""
        ramp = np.linspace(0, 255, 128, dtype=np.uint8)
        img = np.stack([np.tile(ramp, (64, 1))] * 4, axis=-1)
        filtered = comp.png_compress(img)
        plain = zlib.compress(img.tobytes())
        assert len(filtered) < len(plain)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            comp.png_compress(np.zeros((4, 4), dtype=np.uint8))

    def test_rejects_unknown_filter(self):
        """'Up' is the one row filter: every payload names id 0, and
        one naming the retired Paeth id 1 is refused on decode."""
        payload = bytearray(comp.png_compress(random_rgba(9, 7, seed=2)))
        assert payload[5] == 0
        payload[5] = 1
        with pytest.raises(FieldRangeError, match="filter id 1"):
            comp.png_decompress(bytes(payload))

    def test_rejects_truncated_data(self):
        with pytest.raises(ValueError):
            comp.png_decompress(b"\x00\x01")

    @given(st.integers(1, 24), st.integers(1, 24), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, w, h, seed):
        img = random_rgba(w, h, seed=seed)
        assert np.array_equal(comp.png_decompress(comp.png_compress(img)),
                              img)


def smooth_rgba(w, h, seed=0):
    """Photograph-like: a seeded low-amplitude walk down each column."""
    rng = np.random.default_rng(seed)
    steps = rng.integers(-3, 4, size=(h, w, 4))
    return (128 + np.cumsum(steps, axis=0)).astype(np.uint8)


def opaque_rgba(w, h, seed=0):
    """Smooth content with alpha 255 everywhere, as a desktop draws it:
    its RAW PNG payload carries RGB rows."""
    img = smooth_rgba(w, h, seed)
    img[..., 3] = 255
    return img


CONTENT = {"noise": random_rgba, "smooth": smooth_rgba,
           "flat": lambda w, h, seed: flat_rgba(w, h, seed % 256),
           "opaque": opaque_rgba}


class TestAdlerCombine:
    @given(st.binary(max_size=300), st.binary(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_equals_adler_of_the_concatenation(self, a, b):
        assert comp.adler32_combine(zlib.adler32(a), zlib.adler32(b),
                                    len(b)) == zlib.adler32(a + b)

    def test_long_runs_of_ff_wrap_both_words(self):
        a, b = b"\xff" * 70000, b"\xff" * 90001
        assert comp.adler32_combine(zlib.adler32(a), zlib.adler32(b),
                                    len(b)) == zlib.adler32(a + b)


class TestRowBands:
    def test_one_band_image_is_plain_zlib_compress(self):
        """Shorter than two bands: byte-identical to the unbanded
        format, and no table rides along."""
        img = smooth_rgba(100, 325, seed=3)  # 400 B rows, 163-row bands
        payload = comp.png_compress(img)
        assert type(payload) is bytes
        assert payload == (comp._png_header(325, 100, 4) + zlib.compress(
            kernels.up_filter(img).tobytes(), 6))

    def test_multi_band_image_is_one_ordinary_zlib_stream(self):
        img = smooth_rgba(100, 700, seed=4)
        payload = comp.png_compress(img)
        assert len(payload.segments) == 2 * (700 // 163)
        assert sum(seg.size for seg in payload.segments) == img.nbytes
        assert zlib.decompress(payload[6:]) == \
            kernels.up_filter(img).tobytes()
        assert np.array_equal(comp.png_decompress(payload), img)

    def test_split_recompresses_one_row(self):
        img = smooth_rgba(100, 700, seed=5)
        payload = comp.png_compress(img)
        with deflate_spy() as fed:
            rows, head, rest = comp.png_split(payload, img, len(payload) // 2)
        assert fed == [100 * 4]
        assert rows % 163 == 0 and 0 < rows < 700
        assert len(head) <= len(payload) // 2
        assert head.endswith(b"\x03\x00" + zlib.adler32(
            kernels.up_filter(img[:rows]).tobytes()).to_bytes(4, "big"))
        assert np.array_equal(comp.png_decompress(head), img[:rows])
        assert np.array_equal(comp.png_decompress(rest), img[rows:])

    def test_split_declines_without_a_band_that_fits(self):
        img = smooth_rgba(100, 700, seed=6)
        payload = comp.png_compress(img)
        first_band = payload.segments[1].end + 6
        assert comp.png_split(payload, img, first_band - 1) is None
        assert comp.png_split(payload, img, first_band)[0] == 163
        assert comp.png_split(bytes(payload), img, len(payload)) is None
        assert comp.png_split(None, img, len(payload)) is None

    @given(st.integers(1, 40), st.integers(2, 120),
           st.sampled_from(sorted(CONTENT)), st.integers(0, 2**16),
           st.lists(st.integers(0, 6000), min_size=1, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_repeated_split_property(self, w, h, content, seed, budgets):
        """Whatever rooms a RAW command is offered, every fragment
        decodes through the unchanged decoder, a band-path fragment
        knows its exact size and fits its budget, and the fragments
        reassemble the image."""
        img = CONTENT[content](w, h, seed)
        rect = Rect(3, 5, w, h)
        with mock.patch.object(comp, "_BAND_BYTES", 512):
            cmd, heads = RawCommand(rect, img), []
            for budget in cycle(budgets):
                head, rest = cmd.split(budget, budget)
                if rest is None:  # fits whole, or is down to one row
                    heads.append(cmd)
                    break
                if head._payload is not None:  # cut between bands
                    assert head.wire_size() <= budget
                    assert rest.wire_size() == len(rest.encode())
                assert head.wire_size() == len(head.encode())
                heads.append(head)
                cmd = rest
        out = np.zeros((5 + h, 3 + w, 4), dtype=np.uint8)
        for piece in heads:
            pixels = comp.png_decompress(piece._encoded_payload())
            d = piece.dest
            assert pixels.shape == (d.height, d.width, 4)
            out[d.y:d.y2, d.x:d.x2] = pixels
        assert [p.dest.y for p in heads] == sorted(p.dest.y for p in heads)
        assert sum(p.dest.height for p in heads) == h
        assert np.array_equal(out[5:, 3:], img)


class TestOpaqueRows:
    """An opaque RAW block travels as RGB rows (``c = 3``)."""

    @given(st.integers(1, 30), st.integers(1, 30),
           st.sampled_from(sorted(CONTENT)), st.integers(0, 2**16),
           st.sampled_from(["as drawn", "opaque", "one translucent"]),
           st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_raw_png_round_trips_any_rgba_block(self, w, h, content, seed,
                                                alpha, where):
        img = CONTENT[content](w, h, seed)
        if alpha != "as drawn":
            img[..., 3] = 255
        if alpha == "one translucent":
            img.reshape(-1, 4)[where % (w * h), 3] = where % 255
        with mock.patch.object(comp, "_BAND_BYTES", 256):  # banded too
            cmd = RawCommand(Rect(3, 5, w, h), img)
            payload = cmd.to_rows()[2]
        assert (payload[4] == 3) == bool((img[..., 3] == 255).all())
        assert np.array_equal(decode_command(cmd.encode()).pixels, img)

    @pytest.mark.parametrize("channels", [0, 1, 2, 5, 255])
    def test_bad_channel_count_is_rejected_before_inflating(self,
                                                            channels):
        payload = bytearray(comp.png_compress(random_rgba(5, 4)))
        payload[4] = channels
        with mock.patch.object(comp.zlib, "decompressobj",
                               side_effect=AssertionError("inflated")):
            with pytest.raises(FieldRangeError):
                comp.png_decompress(bytes(payload))

    @pytest.mark.parametrize("content,w,h,seed", [
        ("photo", 800, 500, 54), ("photo", 256, 300, 7),
        ("photo", 97, 700, 1),
        ("noise", 200, 300, 2), ("flat", 300, 400, 120)])
    @pytest.mark.parametrize("opaque", [True, False])
    def test_segments_deflate_independently(self, content, w, h, seed,
                                            opaque):
        """What :func:`png_split` relies on: each segment of a banded
        payload is exactly what a fresh raw DEFLATE stream makes of its
        filtered bytes alone, closed by a full flush (the last by
        ``Z_FINISH``) — no segment depends on what came before it."""
        img = (_photo(w, h, seed) if content == "photo"
               else CONTENT[content](w, h, seed))
        img[..., 3] = 255 if opaque else np.arange(w) % 255
        rows = comp.png_channels(img)
        payload = comp.png_compress(rows)
        assert len(payload.segments) >= 4
        filtered = memoryview(kernels.up_filter(rows)).cast("B")
        start, offset = 8, 0  # past our header and the zlib header
        for index, seg in enumerate(payload.segments):
            deflater = zlib.compressobj(6, wbits=-zlib.MAX_WBITS)
            last = index == len(payload.segments) - 1
            alone = (deflater.compress(filtered[offset:offset + seg.size])
                     + deflater.flush(zlib.Z_FINISH if last
                                      else zlib.Z_FULL_FLUSH))
            assert payload[start:seg.end] == alone, index
            start, offset = seg.end, offset + seg.size
        assert offset == rows.size and start == len(payload) - 4

    @pytest.mark.parametrize("filter_id", [1, 2, 7, 255])
    def test_bad_filter_id_is_rejected_before_inflating(self, filter_id):
        payload = bytearray(comp.png_compress(random_rgba(5, 4)))
        payload[5] = filter_id
        with mock.patch.object(comp.zlib, "decompressobj",
                               side_effect=AssertionError("inflated")):
            with pytest.raises(FieldRangeError, match="filter id"):
                comp.png_decompress(bytes(payload))


HERE = min(os.sched_getaffinity(0))


@pytest.fixture(scope="module")
def pools():
    """Pools of 1, 2, 3 and 5 workers, all pinned to one CPU this
    process may use (their bytes cannot depend on where they run)."""
    made = {n: comp._DeflatePool([HERE] * n) for n in (1, 2, 3, 5)}
    yield made
    for pool in made.values():
        pool.executor.shutdown()


class TestDeflatePool:
    """A banded payload's runs DEFLATE on the caller plus one pinned
    worker per spare CPU, into the bytes one thread makes."""

    @given(st.integers(1, 40), st.integers(2, 120),
           st.sampled_from(sorted(CONTENT)), st.booleans(),
           st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_bytes_do_not_depend_on_the_worker_count(self, pools, w, h,
                                                     content, opaque, seed):
        img = CONTENT[content](w, h, seed)
        if opaque:
            img[..., 3] = 255
        rows = comp.png_channels(img)
        blocks = [rows, rows[::-1]]
        with mock.patch.object(comp, "_BAND_BYTES", 256):
            with mock.patch.object(comp, "_pool", comp._DeflatePool([])):
                want = [comp.png_compress(b) for b in blocks]
            for workers, pool in pools.items():
                with mock.patch.object(comp, "_pool", pool), \
                        deflate_spy() as fed:
                    got = [comp.png_compress(b) for b in blocks]
                assert got == want, workers
                assert [getattr(p, "segments", ()) for p in got] == \
                    [getattr(p, "segments", ()) for p in want], workers
                assert sum(fed) == 2 * rows.size

    def test_every_worker_takes_a_run_of_a_photograph(self, pools):
        """The caller DEFLATEs the run with the zlib header, each worker
        one raw run, and the spy still sees every row byte."""
        rows = comp.png_channels(_photo(800, 500, 54))  # 18 bands
        real, made = comp._deflate_run, []

        def deflate_run(spans, level, wbits, last):
            made.append((threading.current_thread().name, wbits))
            return real(spans, level, wbits, last)

        for workers, pool in pools.items():
            made.clear()
            with mock.patch.object(comp, "_pool", pool), \
                    mock.patch.object(comp, "_deflate_run", deflate_run), \
                    deflate_spy() as fed:
                comp.png_compress(rows)
            assert sum(fed) == rows.size
            assert sorted(wbits for _, wbits in made) == \
                [-zlib.MAX_WBITS] * workers + [zlib.MAX_WBITS]
            assert ("MainThread", zlib.MAX_WBITS) in made
            assert all(name.startswith("deflate_")
                       for name, wbits in made if wbits < 0)

    def test_under_two_bands_starts_no_pool(self):
        """``png_compress`` DEFLATEs an image under two bands on the
        calling thread and starts no pool for it.  The prepare stage's
        :class:`PngJob` of the same block does, so that it can run
        beside the caller — with no spare CPU, a pool with no worker,
        and the job runs when it is read."""
        img = smooth_rgba(100, 325, seed=3)  # 163-row bands
        with mock.patch.object(comp, "_spare_cpus", return_value=[]), \
                mock.patch.object(comp, "_pool", None):
            comp.png_compress(img)
            assert comp._pool is None
            comp.png_compress(smooth_rgba(100, 326, seed=3))
            assert comp._pool.workers == 0
        with mock.patch.object(comp, "_spare_cpus", return_value=[]), \
                mock.patch.object(comp, "_pool", None):
            job = comp.PngJob(img, rgb_if_opaque=True)
            assert comp._pool.executor is None and job.payload is None
            assert comp.png_compress(job) == comp.png_compress(img)
            assert job.nbytes == img.nbytes

    def test_a_job_that_may_be_banded_never_reaches_the_pool(self, pools):
        """A pool job never waits on another, so a block that is two
        bands as RGBA rows is not submitted, even when it is opaque (and
        one band as RGB): it runs, split across the pool, when read."""
        img = smooth_rgba(100, 400, seed=3)  # 2 RGBA bands, 1 RGB band
        img[..., 3] = 255
        with mock.patch.object(comp, "_pool", pools[1]):
            job = comp.PngJob(img, rgb_if_opaque=True)
            assert job._future is None
            assert comp.png_compress(job) == comp.png_compress(
                comp.png_channels(img))
            job = comp.PngJob(img[:163], rgb_if_opaque=True)
            assert job._future is not None
            job._future.result()

    def test_jobs_read_in_any_order_under_contention(self, pools):
        """Jobs on more workers than CPUs, read in shuffled order under
        a short switch interval: each block is DEFLATEd exactly once,
        into its own bytes, and counts what it DEFLATEd."""
        rng = np.random.default_rng(9)
        blocks = [random_rgba(int(rng.integers(1, 40)),
                              int(rng.integers(1, 30)), seed=i)
                  for i in range(200)]
        for block in blocks[::2]:
            block[..., 3] = 255
        rows = [comp.png_channels(block) for block in blocks]
        want = [comp.png_compress(r) for r in rows]
        png, ran = comp._png, []

        def counting(img, level):
            ran.append(img.shape)
            return png(img, level)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with mock.patch.object(comp, "_pool", pools[3]), \
                    mock.patch.object(comp, "_png", counting):
                jobs = [comp.PngJob(block, rgb_if_opaque=True)
                        for block in blocks]
                got = {i: comp.png_compress(jobs[i])
                       for i in rng.permutation(len(jobs))}
        finally:
            sys.setswitchinterval(interval)
        assert [got[i] for i in range(len(jobs))] == want
        assert sorted(ran) == sorted(r.shape for r in rows)
        assert [job.nbytes for job in jobs] == [r.nbytes for r in rows]

    @pytest.mark.parametrize("worker", ["queued", "running"])
    def test_a_forked_child_reads_a_started_job(self, worker):
        """Forked after a job was started and before it was read, a
        child gets the parent's bytes without waiting for the parent's
        worker, which does not exist there: whether that worker had
        not yet taken the job (queued) or was inside it (running)."""
        img = smooth_rgba(100, 120, seed=5)
        expected = comp.png_compress(img)
        pool, inside, release = comp._DeflatePool([HERE]), \
            threading.Event(), threading.Event()
        png = comp._png

        def held(img, level):
            if threading.current_thread() is not threading.main_thread():
                inside.set()
                release.wait()
            return png(img, level)

        with mock.patch.object(comp, "_pool", pool), \
                mock.patch.object(comp, "_png", held):
            if worker == "queued":
                pool.executor.submit(release.wait)
            job = comp.PngJob(img, rgb_if_opaque=False)
            if worker == "running":
                assert inside.wait(timeout=30)
            process = multiprocessing.get_context("fork").Process(
                target=lambda: sys.exit(
                    0 if comp.png_compress(job) == expected else 3))
            with warnings.catch_warnings():  # 3.12 warns: forked threads
                warnings.simplefilter("ignore", DeprecationWarning)
                process.start()
            process.join(timeout=60)
            if process.is_alive():
                process.kill()
                process.join(timeout=10)
            release.set()
            assert comp.png_compress(job) == expected
        pool.executor.shutdown()
        assert process.exitcode == 0

    def test_the_prepare_path_needs_no_pool(self):
        """On one CPU the prepare stage starts no worker: each payload
        is DEFLATEd when its command enters the buffer, into the bytes
        ``png_compress`` makes of the block's rows."""
        from tests.helpers import make_multi_rig
        pixels = smooth_rgba(32, 24, seed=6)
        pixels[..., 3] = 255
        raw = RawCommand(Rect(0, 0, 32, 24), pixels)
        with mock.patch.object(comp, "_spare_cpus", return_value=[]), \
                mock.patch.object(comp, "_pool", None):
            loop, _, server, _, (client,) = make_multi_rig([None])
            server.plane.submit(raw, server.sessions)
            assert raw._payload._future is None
            loop.run_until_idle(max_time=10)
            assert comp._pool.executor is None
        assert raw._encoded_payload() == comp.png_compress(
            comp.png_channels(pixels))
        assert np.array_equal(client.fb.data[:24, :32], pixels)

    @pytest.mark.parametrize("cpus,spare", [({HERE}, 0), ({0, 1, 2, 3}, 3)])
    def test_one_worker_per_cpu_beyond_the_callers(self, cpus, spare):
        with mock.patch.object(comp.os, "sched_getaffinity",
                               return_value=cpus):
            assert len(comp._spare_cpus()) == spare

    def test_a_worker_exception_reaches_the_caller(self, pools):
        real = comp._deflate_run

        def deflate_run(spans, level, wbits, last):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("worker failed")
            return real(spans, level, wbits, last)

        img = smooth_rgba(100, 700, seed=4)
        with mock.patch.object(comp, "_pool", pools[2]):
            with mock.patch.object(comp, "_deflate_run", deflate_run):
                with pytest.raises(RuntimeError, match="worker failed"):
                    comp.png_compress(img)
            assert np.array_equal(
                comp.png_decompress(comp.png_compress(img)), img)

    def test_a_forked_child_deflates_with_its_own_pool(self):
        """The parent's workers do not exist in a forked child; a child
        still holding the parent's executor would wait for ever on the
        first run it hands it."""
        img = _photo(800, 500, 54)
        with mock.patch.object(comp, "_spare_cpus", return_value=[HERE]), \
                mock.patch.object(comp, "_pool", None):
            expected = comp.png_compress(img)
            pool = comp._pool
            process = multiprocessing.get_context("fork").Process(
                target=lambda: sys.exit(
                    0 if comp.png_compress(img) == expected else 3))
            with warnings.catch_warnings():  # 3.12 warns: forked threads
                warnings.simplefilter("ignore", DeprecationWarning)
                process.start()
            process.join(timeout=60)
            if process.is_alive():
                process.kill()
                process.join(timeout=10)
        pool.executor.shutdown()
        assert pool.workers == 1 and process.exitcode == 0


class TestRle:
    def test_roundtrip(self):
        img = random_rgba(13, 7, seed=3)
        assert np.array_equal(comp.rle_decompress(comp.rle_compress(img)),
                              img)

    def test_flat_content_is_tiny(self):
        img = flat_rgba(64, 64)
        assert len(comp.rle_compress(img)) < 16

    def test_noise_expands(self):
        """RLE on noise is worse than raw — the VNC failure mode."""
        img = random_rgba(32, 32, seed=4)
        assert len(comp.rle_compress(img)) > img.nbytes

    def test_long_runs_chunked(self):
        img = flat_rgba(300, 300)  # 90000 px > 65535 run limit
        out = comp.rle_decompress(comp.rle_compress(img))
        assert np.array_equal(out, img)

    def test_rejects_rgb(self):
        with pytest.raises(ValueError):
            comp.rle_compress(np.zeros((4, 4, 3), dtype=np.uint8))

    def test_rejects_truncated(self):
        data = comp.rle_compress(flat_rgba(4, 4))
        with pytest.raises(ValueError):
            comp.rle_decompress(data[:-3])

    @given(st.integers(1, 16), st.integers(1, 16), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, w, h, seed):
        rng = np.random.default_rng(seed)
        # Low-entropy pixels so runs actually occur.
        img = rng.integers(0, 3, size=(h, w, 4), dtype=np.uint8) * 80
        assert np.array_equal(comp.rle_decompress(comp.rle_compress(img)),
                              img)
