"""Tests for the A/V player and typing workloads."""

import pytest

from repro.display import RecordingDriver, WindowServer
from repro.net import EventLoop
from repro.region import Rect
from repro.video.stream import SyntheticVideoClip
from repro.workloads.interactive import TypingUnderLoadWorkload
from repro.workloads.video import AVPlayerApp


class AudioSpy:
    def __init__(self):
        self.chunks = []

    def submit_audio(self, ts, samples):
        self.chunks.append((ts, len(samples)))


class TestAVPlayer:
    def make(self, audio=True, **kw):
        loop = EventLoop()
        driver = RecordingDriver()
        ws = WindowServer(128, 96, driver=driver, clock=loop.clock)
        clip = SyntheticVideoClip(width=32, height=24, fps=20, duration=0.5)
        sink = AudioSpy() if audio else None
        player = AVPlayerApp(ws, loop, clip, audio_sink=sink, **kw)
        return loop, driver, ws, clip, sink, player

    def test_plays_all_frames_at_rate(self):
        loop, driver, ws, clip, sink, player = self.make()
        done = []
        player.start(on_done=lambda: done.append(loop.now))
        loop.run_until_idle(max_time=10)
        assert player.frames_put == clip.frame_count
        assert driver.names().count("video_put") == clip.frame_count
        assert done and abs(done[0] - clip.duration) < 0.1

    def test_stream_lifecycle(self):
        loop, driver, ws, clip, sink, player = self.make()
        player.start()
        loop.run_until_idle(max_time=10)
        names = driver.names()
        assert names.count("video_setup") == 1
        assert names.count("video_teardown") == 1
        assert ws.video_streams == {}

    def test_audio_in_step_with_video(self):
        loop, driver, ws, clip, sink, player = self.make()
        player.start()
        loop.run_until_idle(max_time=10)
        assert sink.chunks
        total = sum(n for _, n in sink.chunks)
        expected = player.audio_fmt.bytes_for(clip.duration)
        assert abs(total - expected) <= player.audio_fmt.frame_bytes * \
            clip.frame_count

    def test_max_frames_truncates(self):
        loop, driver, ws, clip, sink, player = self.make(max_frames=4)
        player.start()
        loop.run_until_idle(max_time=10)
        assert player.frames_put == 4
        assert player.ideal_duration == pytest.approx(4 / clip.fps)

    def test_fullscreen_dst(self):
        loop, driver, ws, clip, sink, player = self.make()
        assert player.dst_rect == Rect(0, 0, 128, 96)

    def test_double_start_rejected(self):
        loop, driver, ws, clip, sink, player = self.make()
        player.start()
        with pytest.raises(RuntimeError):
            player.start()


class TestTypingWorkload:
    def test_generates_keys_and_bulk(self, monkeypatch):
        monkeypatch.setattr(TypingUnderLoadWorkload, "key_interval", 0.05)
        monkeypatch.setattr(TypingUnderLoadWorkload, "image_interval", 0.04)
        monkeypatch.setattr(TypingUnderLoadWorkload, "image_size", 64)
        loop = EventLoop()
        ws = WindowServer(320, 240, clock=loop.clock)
        inputs = []
        workload = TypingUnderLoadWorkload(
            ws, loop, inject_input=lambda x, y: inputs.append((x, y)),
            keys=5)
        workload.start()
        loop.run_until_idle(max_time=5)
        assert len(inputs) == 5
        assert len(workload.records) == 5
        assert ws.op_counts.get("put_image", 0) > 3

    def test_echo_latency_recording(self):
        loop = EventLoop()
        ws = WindowServer(320, 240, clock=loop.clock)
        workload = TypingUnderLoadWorkload(
            ws, loop, inject_input=lambda x, y: None, keys=3)
        workload.start()
        loop.run_until_idle(max_time=5)
        workload.mark_echo_delivered(0, workload.records[0].key_time + 0.05)
        assert workload.latencies() == [pytest.approx(0.05)]
        # Marking twice keeps the first delivery time.
        workload.mark_echo_delivered(0, 99.0)
        assert workload.latencies() == [pytest.approx(0.05)]


class TestTerminalApp:
    def make(self):
        from repro.net import EventLoop
        from repro.workloads.terminal import TerminalApp

        loop = EventLoop()
        ws = WindowServer(200, 120, driver=RecordingDriver(),
                          clock=loop.clock)
        term = TerminalApp(ws, loop, Rect(0, 0, 200, 120))
        return loop, ws, term

    def test_lines_render_without_scroll_until_full(self):
        loop, ws, term = self.make()
        for i in range(term.rows):
            term.write_line(f"line {i}")
        assert ws.op_counts.get("copy_area", 0) == 0
        assert term.lines_written == term.rows

    def test_overflow_scrolls_with_copy(self):
        loop, ws, term = self.make()
        for i in range(term.rows + 3):
            term.write_line(f"line {i}")
        assert ws.op_counts["copy_area"] == 3

    def test_run_output_paced_on_loop(self):
        loop, ws, term = self.make()
        done = []
        term.run_output([f"l{i}" for i in range(5)], interval=0.1,
                        on_done=lambda: done.append(loop.now))
        loop.run_until_idle(max_time=5)
        assert term.lines_written == 5
        assert done and abs(done[0] - 0.5) < 0.11

    def test_too_short_region_rejected(self):
        from repro.net import EventLoop
        from repro.workloads.terminal import TerminalApp

        ws = WindowServer(100, 100)
        with pytest.raises(ValueError):
            TerminalApp(ws, EventLoop(), Rect(0, 0, 100, 8))

    def test_scroll_through_thinc_pixel_exact(self):
        from repro.core import THINCClient, THINCServer
        from repro.net import Connection, EventLoop, LAN_DESKTOP
        from repro.workloads.terminal import TerminalApp

        loop = EventLoop()
        conn = Connection(loop, LAN_DESKTOP)
        server = THINCServer(loop, 200, 120)
        ws = WindowServer(200, 120, driver=server.driver, clock=loop.clock)
        server.attach_client(conn)
        client = THINCClient(loop, conn)
        term = TerminalApp(ws, loop, Rect(10, 10, 180, 100))
        term.run_output([f"output line {i}" for i in range(20)],
                        interval=0.02)
        loop.run_until_idle(max_time=10)
        assert client.fb.same_as(ws.screen.fb)
