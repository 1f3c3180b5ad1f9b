"""Tests for the virtual audio driver and A/V quality analysis."""

import pytest

from repro.audio import (AudioFormat, VirtualAudioDriver, audio_quality,
                         av_sync_skew, playback_quality)
from repro.net import SimClock


class SinkSpy:
    def __init__(self):
        self.chunks = []

    def submit_audio(self, timestamp, samples):
        self.chunks.append((timestamp, samples))


class TestAudioFormat:
    def test_cd_quality_defaults(self):
        fmt = AudioFormat()
        assert fmt.bytes_per_second == 44100 * 4
        assert fmt.frame_bytes == 4

    def test_duration_roundtrip(self):
        fmt = AudioFormat()
        nbytes = fmt.bytes_for(0.5)
        assert abs(fmt.duration_of(nbytes) - 0.5) < 1e-3
        assert nbytes % fmt.frame_bytes == 0


class TestVirtualAudioDriver:
    def test_chunks_at_period_boundaries(self):
        clock = SimClock()
        sink = SinkSpy()
        drv = VirtualAudioDriver(sink, clock)
        one_second = AudioFormat().bytes_for(1.0)
        drv.play(b"\x00" * one_second)
        assert len(sink.chunks) == 20
        assert drv.bytes_emitted == one_second

    def test_timestamps_advance_with_playback_position(self, monkeypatch):
        monkeypatch.setattr(VirtualAudioDriver, "period", 0.1)
        clock = SimClock()
        clock.advance_to(3.0)
        sink = SinkSpy()
        drv = VirtualAudioDriver(sink, clock)
        drv.play(b"\x00" * AudioFormat().bytes_for(0.3))
        stamps = [t for t, _ in sink.chunks]
        assert stamps[0] == pytest.approx(3.0)
        assert stamps[1] == pytest.approx(3.1)
        assert stamps[2] == pytest.approx(3.2)

    def test_partial_writes_accumulate(self, monkeypatch):
        monkeypatch.setattr(VirtualAudioDriver, "period", 0.1)
        clock = SimClock()
        sink = SinkSpy()
        drv = VirtualAudioDriver(sink, clock)
        small = AudioFormat().bytes_for(0.03)
        for _ in range(5):  # 0.15 s total
            drv.play(b"\x00" * small)
        assert len(sink.chunks) == 1
        drv.drain()
        assert len(sink.chunks) == 2

    def test_rejects_torn_sample_frames(self):
        drv = VirtualAudioDriver(SinkSpy(), SimClock())
        with pytest.raises(ValueError):
            drv.play(b"\x00\x01\x02")  # 3 bytes, frame is 4


class TestPlaybackQuality:
    def test_perfect(self):
        assert playback_quality(100, 100, 10.0, 10.0) == 1.0

    def test_half_dropped(self):
        assert playback_quality(50, 100, 10.0, 10.0) == pytest.approx(0.5)

    def test_double_duration(self):
        assert playback_quality(100, 100, 10.0, 20.0) == pytest.approx(0.5)

    def test_both_degradations_multiply(self):
        assert playback_quality(50, 100, 10.0, 20.0) == pytest.approx(0.25)

    def test_faster_than_realtime_not_rewarded(self):
        assert playback_quality(100, 100, 10.0, 8.0) == 1.0

    def test_zero_received(self):
        assert playback_quality(0, 100, 10.0, 10.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            playback_quality(1, 0, 10.0, 10.0)


class TestAudioQuality:
    def test_all_on_time(self):
        arrivals = [(i * 0.1, i * 0.1 + 0.02) for i in range(10)]
        assert audio_quality(arrivals, 10, 1.0) == 1.0

    def test_late_chunks_counted(self):
        arrivals = [(0.0, 0.0)] + [(i * 0.1, i * 0.1 + 2.0)
                                   for i in range(1, 10)]
        q = audio_quality(arrivals, 10, 1.0)
        assert q < 0.2

    def test_missing_chunks_reduce(self):
        arrivals = [(i * 0.1, i * 0.1) for i in range(5)]
        assert audio_quality(arrivals, 10, 1.0) == pytest.approx(0.5)

    def test_empty(self):
        assert audio_quality([], 10, 1.0) == 0.0


class TestSyncSkew:
    def test_equal_delays_no_skew(self):
        a = [(0.0, 0.5), (1.0, 1.5)]
        v = [(0.0, 0.5), (1.0, 1.5)]
        assert av_sync_skew(a, v) == pytest.approx(0.0)

    def test_differential_delay_measured(self):
        a = [(0.0, 0.1)]
        v = [(0.0, 0.4)]
        assert av_sync_skew(a, v) == pytest.approx(0.3)

    def test_empty_streams(self):
        assert av_sync_skew([], [(0, 1)]) == 0.0
