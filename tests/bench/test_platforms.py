"""Tests for the uniform platform adapters."""

import pytest

from repro.baselines.gotomypc import MIN_VIEWPORT, RELAY_EXTRA_RTT
from repro.bench.platforms import PLATFORMS, make_platform
from repro.codec import Encoding
from repro.net import EventLoop, LAN_DESKTOP
from repro.region import Rect

RED = (255, 0, 0, 255)


class TestRegistry:
    def test_all_eight_platforms(self):
        assert set(PLATFORMS) == {"THINC", "VNC", "GoToMyPC", "SunRay",
                                  "X", "NX", "RDP", "ICA"}

    def test_unknown_platform_rejected(self):
        with pytest.raises(ValueError):
            make_platform("Tarantella", EventLoop(), LAN_DESKTOP)


class TestCapabilityMatrix:
    """Paper Section 8: which systems support what."""

    def test_audio_support(self):
        no_audio = {"VNC", "GoToMyPC"}
        for name, cls in PLATFORMS.items():
            assert cls.supports_audio == (name not in no_audio), name

    def test_color_depth(self):
        for name, cls in PLATFORMS.items():
            expected = 8 if name == "GoToMyPC" else 24
            assert cls.color_depth == expected, name

    def test_resize_models(self):
        assert PLATFORMS["THINC"].resize_model == "server"
        assert PLATFORMS["ICA"].resize_model == "client"
        assert PLATFORMS["GoToMyPC"].resize_model == "client"
        assert PLATFORMS["RDP"].resize_model == "clip"
        assert PLATFORMS["X"].resize_model == "none"
        assert PLATFORMS["SunRay"].resize_model == "none"


class TestPlatformBehaviour:
    @pytest.mark.parametrize("name", sorted(PLATFORMS))
    def test_end_to_end_update_flow(self, name):
        loop = EventLoop()
        platform = make_platform(name, loop, LAN_DESKTOP,
                                 width=128, height=96)
        platform.window_server.fill_rect(platform.window_server.screen,
                                         Rect(0, 0, 32, 32), RED)
        loop.run_until_idle(max_time=10)
        assert platform.bytes_transferred() > 0
        assert platform.last_update_time() > 0

    @pytest.mark.parametrize("name", sorted(PLATFORMS))
    def test_input_round_trip(self, name):
        loop = EventLoop()
        platform = make_platform(name, loop, LAN_DESKTOP,
                                 width=128, height=96)
        seen = []
        platform.set_input_handler(lambda x, y: seen.append((x, y)))
        platform.send_client_input(12, 34)
        loop.run_until_idle(max_time=5)
        assert seen == [(12, 34)]

    def test_gotomypc_link_includes_relay(self):
        loop = EventLoop()
        platform = make_platform("GoToMyPC", loop, LAN_DESKTOP)
        assert platform.link.effective_rtt == pytest.approx(
            LAN_DESKTOP.rtt + RELAY_EXTRA_RTT)

    def test_gotomypc_viewport_floor(self):
        loop = EventLoop()
        platform = make_platform("GoToMyPC", loop, LAN_DESKTOP,
                                 viewport=(320, 240))
        assert platform.viewport == MIN_VIEWPORT

    def test_audio_dropped_by_unsupporting_platforms(self):
        loop = EventLoop()
        platform = make_platform("VNC", loop, LAN_DESKTOP,
                                 width=128, height=96)
        platform.submit_audio(0.0, b"\x00" * 1000)
        loop.run_until_idle(max_time=2)
        assert platform.audio_chunks_received() == 0

    def test_audio_delivered_by_supporting_platforms(self):
        loop = EventLoop()
        platform = make_platform("SunRay", loop, LAN_DESKTOP,
                                 width=128, height=96)
        platform.submit_audio(0.0, b"\x00" * 1000)
        loop.run_until_idle(max_time=2)
        assert platform.audio_chunks_received() == 1

    def test_thinc_feature_toggles(self):
        loop = EventLoop()
        platform = make_platform("THINC", loop, LAN_DESKTOP, width=128,
                                 height=96, offscreen_awareness=False,
                                 compress_raw=False)
        driver = platform.server.driver
        assert not driver.offscreen_awareness
        assert driver.raw_encoding is Encoding.NONE
