"""Integration tests for the benchmark testbed (small workloads); what
the runs show is repro.bench.claims' (tests/bench/test_claims.py)."""

import pytest

from repro.baselines import LocalPCModel
from repro.bench.testbed import (run_av_benchmark, run_typing_benchmark,
                                 run_web_benchmark)
from repro.net import LAN_DESKTOP, LinkParams
from repro.video.stream import SyntheticVideoClip


class TestWebRunner:
    def test_thinc_small_run(self):
        r = run_web_benchmark("THINC", LAN_DESKTOP, "lan", page_count=3,
                              width=512, height=384)
        assert len(r.pages) == 3
        assert r.mean_latency > 0
        assert r.mean_page_bytes > 1000
        assert r.mean_latency_with_processing >= r.mean_latency

    def test_pages_are_separable(self):
        r = run_web_benchmark("THINC", LAN_DESKTOP, "lan", page_count=3,
                              width=512, height=384)
        clicks = [p.click_time for p in r.pages]
        assert clicks == sorted(clicks)
        assert all(b - a >= 0.7 for a, b in zip(clicks, clicks[1:]))

    def test_platform_kwargs_forwarded(self):
        on = run_web_benchmark("THINC", LAN_DESKTOP, "lan", page_count=2,
                               width=512, height=384)
        off = run_web_benchmark("THINC", LAN_DESKTOP, "lan", page_count=2,
                                width=512, height=384,
                                offscreen_awareness=False)
        assert off.mean_page_bytes > on.mean_page_bytes


class TestAVRunner:
    def test_quality_collapses_on_starved_link(self):
        clip = SyntheticVideoClip(width=64, height=48, fps=24, duration=1.0)
        thin = LinkParams("thin", bandwidth_bps=0.3e6, rtt=0.01)
        r = run_av_benchmark("THINC", thin, "thin", width=256, height=192,
                             clip=clip, send_buffer=7000)
        assert r.av_quality < 0.8

    def test_max_frames_and_extrapolation(self):
        clip = SyntheticVideoClip(width=64, height=48, fps=24, duration=2.0)
        r = run_av_benchmark("THINC", LAN_DESKTOP, "lan", width=256,
                             height=192, clip=clip, max_frames=12)
        assert r.frames_sent == 12
        assert r.full_duration_scale == pytest.approx(clip.frame_count / 12)
        assert r.total_bytes_full_clip > r.bytes_transferred


class TestTypingRunner:
    def test_all_echoes_delivered(self):
        latencies = run_typing_benchmark(LAN_DESKTOP, keys=5).latencies
        assert len(latencies) == 5
        assert all(l > 0 for l in latencies)


class TestLocalPCModel:
    def test_page_metrics(self):
        model = LocalPCModel()
        latency, nbytes = model.page_metrics(100_000, 1_000_000,
                                             LAN_DESKTOP)
        assert nbytes == 100_000
        assert 0 < latency < 1.0

    def test_slow_client_dominates_latency(self):
        fast = LocalPCModel(cpu_slowdown=1.0)
        slow = LocalPCModel(cpu_slowdown=3.0)
        f, _ = fast.page_metrics(100_000, 1_000_000, LAN_DESKTOP)
        s, _ = slow.page_metrics(100_000, 1_000_000, LAN_DESKTOP)
        assert s > f

    def test_video_perfect_when_link_carries_bitrate(self):
        model = LocalPCModel()
        quality, nbytes = model.video_metrics(34.75, LAN_DESKTOP)
        assert quality == 1.0
        assert nbytes < 6e6

    def test_video_degrades_below_bitrate(self):
        model = LocalPCModel()
        modem = LinkParams("modem", bandwidth_bps=0.5e6, rtt=0.1)
        quality, _ = model.video_metrics(34.75, modem)
        assert quality < 0.5
