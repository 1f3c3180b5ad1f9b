"""Tripwire for thincbench's tracer: the codec and resize entry points
it wraps are entered from the main thread only.

The prepare stage DEFLATEs a one-band PNG payload on a pool worker
beside the event loop.  The tracer keeps one span stack and appends to
unlocked arrays, so a wrapped entry point called from that worker
would corrupt the ledger without any error.  This reads the wrap
points the way ``test_tracer_wrap_points.py`` does, records the thread
of every ``codec`` and ``core.resize`` call during a scaled,
adaptive-encoding image load (``typing_dsl`` in miniature, with a
DEFLATE worker even on one CPU), and requires the main thread.
"""

import importlib.util
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.net import LinkParams
from repro.protocol import compression
from repro.region import Rect
from tests.helpers import make_multi_rig

DSL = LinkParams("DSL 8M/30ms", bandwidth_bps=8e6, rtt=0.030,
                 tcp_window=256 * 1024)
TRACING = Path(__file__).resolve().parents[2] / "benchmarks/e2e/tracing.py"


def _wrap_points(layers):
    spec = importlib.util.spec_from_file_location("_thincbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(owner, name) for layer, owner, name, _, _
            in tracing._wrap_points() if layer in layers]


@pytest.fixture
def calls(monkeypatch):
    """``(entry name, thread)`` for every call of a wrapped codec or
    resize entry point while the test runs, plus the DEFLATE worker."""
    seen = []
    for owner, name in _wrap_points({"codec", "core.resize"}):
        real = getattr(owner, name)

        def recording(*args, _real=real, _name=name, **kwargs):
            seen.append((_name, threading.current_thread()))
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, recording)
    png = compression._png

    def deflating(img, level):
        seen.append(("(deflate)", threading.current_thread()))
        return png(img, level)

    monkeypatch.setattr(compression, "_png", deflating)
    pool = compression._DeflatePool([min(os.sched_getaffinity(0))])
    monkeypatch.setattr(compression, "_pool", pool)
    yield seen, pool
    pool.executor.shutdown()


def test_codec_and_resize_entries_run_on_the_main_thread(calls):
    seen, pool = calls
    loop, _, server, ws, (client,) = make_multi_rig(
        [(60, 40)], width=96, height=64, link=DSL, adaptive_encoding=True)
    rng = np.random.default_rng(11)
    for y in range(0, 64, 16):
        ws.put_image(ws.screen, Rect(8, y, 80, 16),
                     rng.integers(0, 256, (16, 80, 4), dtype=np.uint8))
        # Let the worker take every job the prepare stage started
        # before the loop reads a payload.
        pool.executor.submit(int).result()
        loop.run_until_idle(max_time=10)
    names = {name for name, _ in seen}
    assert {"png_compress", "png_decompress", "resample",
            "scale_command", "select"} <= names
    main = threading.main_thread()
    assert [thread is main for name, thread in seen
            if name == "(deflate)"] == [False] * 4
    assert not [(name, thread.name) for name, thread in seen
                if name != "(deflate)" and thread is not main]
