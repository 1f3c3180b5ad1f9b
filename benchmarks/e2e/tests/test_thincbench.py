"""Self-tests of thincbench, at ``--quick`` sizes.

Run with ``python -m pytest benchmarks/e2e/tests`` (not tier-1).
"""

import json
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]

import compare  # noqa: E402
import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAMES = sorted(WORKLOADS)
LAN = [n for n in NAMES if n != "typing_dsl"]
SEED = 7
DETERMINISTIC = ("sim_latency_ms_p50", "sim_latency_ms_p90",
                 "wire_bytes_per_op", "sim_quality", "ok_ops_share")
# Units of layer metrics that are measured wall time, not counts.
WALL_UNITS = ("ms", "%")


@pytest.fixture(scope="module")
def end_to_end():
    """Two untraced quick runs per workload, same seed."""
    return {name: [harness.measure_end_to_end(name, SEED, True, 0.0)
                   for _ in range(2)] for name in NAMES}


@pytest.fixture(scope="module")
def layers(tmp_path_factory):
    """Two traced quick runs per workload, same seed."""
    out = tmp_path_factory.mktemp("trace")
    return {name: [harness.measure_layers(
        name, SEED, True, trace_path=out / f"trace-{name}-{i}.jsonl")
        for i in range(2)] for name in NAMES}, out


def _value(result, metric):
    return result["metrics"][metric]["value"]


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_repeats_exactly(end_to_end, layers, name):
    first, second = end_to_end[name]
    assert first["correct"] and second["correct"]
    assert first["failed"] == 0 and first["attempted"] > 0
    for metric in DETERMINISTIC:
        assert _value(first, metric) == _value(second, metric), metric
    first, second = layers[0][name]
    assert first["correct"] and second["correct"]
    for metric, entry in first["metrics"].items():
        if entry["unit"] in WALL_UNITS \
                or metric == "harness.unattributed_share":
            continue
        assert entry["value"] == _value(second, metric), metric


@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_reported(end_to_end, layers, name):
    assert set(end_to_end[name][0]["metrics"]) == set(harness.END_TO_END)
    expected = set(harness.EXTRA_LAYER_METRICS)
    for layer in harness.LAYERS:
        expected |= {f"{layer}.calls_per_op", f"{layer}.self_ms_per_op"}
    assert set(layers[0][name][0]["metrics"]) == expected


def _digest(obj, crc=0):
    if isinstance(obj, np.ndarray):
        return zlib.crc32(obj.tobytes(), crc)
    if isinstance(obj, (bytes, bytearray)):
        return zlib.crc32(bytes(obj), crc)
    if isinstance(obj, dict):
        obj = sorted(obj.items())
    if isinstance(obj, (list, tuple)):
        for item in obj:
            crc = _digest(item, crc)
        return crc
    return zlib.crc32(repr(getattr(obj, "__dict__", obj)).encode(), crc)


@pytest.mark.parametrize("name", NAMES)
def test_seed_decides_the_op_script(name):
    workload = WORKLOADS[name]
    n = workload.ops_quick
    assert _digest(workload.build(1, n)) == _digest(workload.build(1, n))
    assert _digest(workload.build(1, n)) != _digest(workload.build(2, n))


def _corrupt(rig):
    rig.client.fb.data[0, 0, 0] ^= 0xFF


def test_corrupted_client_framebuffer_fails_ops():
    result = harness.measure_end_to_end("term_scroll", SEED, True, 0.0,
                                        tamper=_corrupt)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert _value(result, "ok_ops_share") == 0.0


def test_typing_digest_divergence_fails_the_rep():
    calls = []

    def corrupt_second_rep(rig):
        calls.append(rig)
        if len(calls) == 2:
            _corrupt(rig)

    result = harness.measure_end_to_end("typing_dsl", SEED, True, 0.0,
                                        tamper=corrupt_second_rep)
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


@pytest.mark.parametrize("name", NAMES)
def test_bypassed_layers_do_nothing(layers, name):
    result = layers[0][name][0]
    if name in LAN:
        assert _value(result, "core.resize.calls_per_op") == 0
        assert _value(result, "core.resize.pixels_in_per_op") == 0
    else:
        assert _value(result, "core.resize.calls_per_op") > 0
    if name == "video_lan":
        assert _value(result, "video.yuv.calls_per_op") > 0
    else:
        assert _value(result, "video.yuv.calls_per_op") == 0


@pytest.mark.parametrize("name", NAMES)
def test_trace_attributes_the_wall(layers, name):
    results, out = layers
    for result in results[name]:
        assert _value(result, "harness.unattributed_share") <= 0.10
    spans = [json.loads(line) for line in
             (out / f"trace-{name}-0.jsonl").read_text().splitlines()]
    assert len(spans) == results[name][0]["detail"]["spans_per_rep"]
    ids = {span["id"] for span in spans}
    for span in spans:
        assert set(span) == {"id", "parent", "op", "layer", "fn", "t0",
                             "t1", "sim"}
        assert span["parent"] == 0 or span["parent"] in ids
        assert span["t1"] >= span["t0"]
        assert span["layer"] in harness.LAYERS


def test_tracer_restores_what_it_wrapped():
    from repro.display.xserver import WindowServer
    from repro.net.clock import EventLoop
    from tracing import Tracer

    before = (WindowServer.draw_text, EventLoop.schedule)
    with Tracer():
        assert WindowServer.draw_text is not before[0]
    assert (WindowServer.draw_text, EventLoop.schedule) == before


def test_compare_verdicts():
    steady = [100.0, 100.5, 99.5, 100.2]
    assert compare.verdict(steady, [101.0, 100.8, 101.3, 100.9],
                           "lower", 0.10)["verdict"] == "ok"
    assert compare.verdict(steady, [120.0, 120.5, 119.5, 120.2],
                           "lower", 0.10)["verdict"] == "regressed"
    assert compare.verdict(steady, [80.0, 80.5, 79.5, 80.2],
                           "higher", 0.10)["verdict"] == "regressed"
    noisy = [100.0, 130.0, 90.0, 115.0]
    assert compare.verdict(noisy, [105.0, 125.0, 95.0, 110.0],
                           "lower", 0.10)["verdict"] == "unresolved"
    # Spread over the bound, but every B run beats every A run.
    assert compare.verdict(noisy, [60.0, 70.0, 65.0, 80.0],
                           "lower", 0.10)["verdict"] == "ok"
    # One run a side: no spread to speak of, the ratio decides.
    single = compare.verdict([100.0], [100.0], "lower", 0.01)
    assert single["spread"] is None and single["verdict"] == "ok"
