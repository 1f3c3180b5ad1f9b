"""The content classifier, the link-posture probe, and the selection
ladder that joins them."""

import numpy as np

from repro.codec import Encoding, EncoderPolicy, LinkPosture
from repro.codec.classify import SAMPLE_BUDGET, classify


def solid(w=32, h=32, color=(10, 20, 30, 255)):
    return np.full((h, w, 4), color, dtype=np.uint8)


def chrome(w=64, h=64):
    """Two-tone desktop chrome: long horizontal runs, tiny palette."""
    img = np.full((h, w, 4), (240, 240, 240, 255), dtype=np.uint8)
    img[::8, :] = (80, 80, 80, 255)
    return img


def noise(w=64, h=64, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, (h, w, 4), dtype=np.uint8)


class TestClassifier:
    def test_solid_block(self):
        stats = classify(solid(color=(1, 2, 3, 4)))
        assert stats.solid_color == (1, 2, 3, 4)
        assert stats.unique_colors == 1

    def test_solid_check_is_exact(self):
        """One stray pixel anywhere defeats the solid demotion — it is
        a semantic rewrite, so sampling may not decide it."""
        img = solid(64, 64)
        img[63, 63] = (0, 0, 0, 0)
        assert classify(img).solid_color is None

    def test_chrome_is_flat(self):
        stats = classify(chrome())
        assert stats.solid_color is None
        assert stats.flat
        assert stats.unique_colors <= 2

    def test_noise_is_busy(self):
        stats = classify(noise())
        assert not stats.flat
        assert stats.run_ratio > 0.5

    def test_empty_block(self):
        stats = classify(np.zeros((0, 0, 4), dtype=np.uint8))
        assert stats.unique_colors == 1

    def test_large_blocks_are_sampled_deterministically(self):
        img = noise(512, 512, seed=2)  # 4x the sample budget
        assert img.size // 4 > SAMPLE_BUDGET
        first = classify(img)
        assert classify(img) == first
        assert not first.flat


class TestPosture:
    def make(self):
        policy = EncoderPolicy()
        assert (policy.saturation, policy.backlog_horizon,
                policy.plentiful_headroom, policy.lan_floor_bps) \
            == (0.85, 0.1, 0.25, 50e6)
        return policy

    def test_unknown_link_is_lossless(self):
        policy = self.make()
        assert policy.posture_for(None, None) is LinkPosture.LOSSLESS
        assert policy.posture_for(1e9, None) is LinkPosture.LOSSLESS

    def test_saturated_measured_rate_degrades(self):
        policy = self.make()
        assert policy.posture_for(0.9e6, 1e6) is LinkPosture.DEGRADED
        assert policy.posture_for(0.5e6, 1e6) is LinkPosture.LOSSLESS

    def test_backlog_beyond_drain_horizon_degrades(self):
        """A queue in front of the link proves congestion before the
        measured rate does: > 0.1 s of drain at 1 Mb/s is 12.5 kB."""
        policy = self.make()
        assert policy.posture_for(0.0, 1e6, backlog_bytes=20_000) \
            is LinkPosture.DEGRADED
        assert policy.posture_for(0.0, 1e6, backlog_bytes=1_000) \
            is LinkPosture.LOSSLESS

    def test_idle_lan_is_plentiful(self):
        policy = self.make()
        assert policy.posture_for(1e6, 100e6) is LinkPosture.PLENTIFUL

    def test_idle_slow_link_is_not_plentiful(self):
        policy = self.make()
        assert policy.posture_for(0.0, 1e6) is LinkPosture.LOSSLESS

    def test_busy_lan_is_lossless(self):
        policy = self.make()
        assert policy.posture_for(50e6, 100e6) is LinkPosture.LOSSLESS


class TestSelectionLadder:
    def test_solid_demotes_to_sfill(self):
        policy = EncoderPolicy()
        for posture in LinkPosture:
            choice = policy.select(solid(color=(9, 9, 9, 255)), posture)
            assert choice.encoding is Encoding.NONE
            assert choice.solid_color == (9, 9, 9, 255)
        assert policy.demotions == len(LinkPosture)

    def test_flat_takes_rle_in_every_posture(self):
        policy = EncoderPolicy()
        for posture in LinkPosture:
            assert policy.select(chrome(), posture).encoding \
                is Encoding.RLE

    def test_busy_block_follows_the_posture(self):
        policy = EncoderPolicy()
        block = noise()  # 64x64 = 4096 pixels
        assert policy.select(block, LinkPosture.LOSSLESS).encoding \
            is Encoding.PNG
        assert policy.select(block, LinkPosture.DEGRADED).encoding \
            is Encoding.LOSSY
        assert policy.select(block, LinkPosture.PLENTIFUL).encoding \
            is Encoding.NONE

    def test_small_blocks_stay_lossless(self):
        """Below min_lossy_pixels the artefact cost outweighs the
        byte savings (and raw rows their CPU savings)."""
        policy = EncoderPolicy()
        assert policy.min_lossy_pixels == 1024
        small = noise(16, 16)
        assert policy.select(small, LinkPosture.DEGRADED).encoding \
            is Encoding.PNG
        assert policy.select(small, LinkPosture.PLENTIFUL).encoding \
            is Encoding.PNG

    def test_bool_posture_compatibility(self):
        """``select`` takes a LinkPosture only; a caller holding just
        the saturation flag converts it through the enum."""
        policy = EncoderPolicy()
        assert policy.select(noise(), LinkPosture(True)).encoding \
            is Encoding.LOSSY
        assert policy.select(noise(), LinkPosture(False)).encoding \
            is Encoding.PNG

    def test_counts_tally_choices(self):
        policy = EncoderPolicy()
        policy.select(noise(), LinkPosture.LOSSLESS)
        policy.select(noise(), LinkPosture.DEGRADED)
        policy.select(chrome(), LinkPosture.LOSSLESS)
        policy.select(solid(), LinkPosture.LOSSLESS)
        assert policy.counts[Encoding.PNG] == 1
        assert policy.counts[Encoding.LOSSY] == 1
        assert policy.counts[Encoding.RLE] == 1
        assert policy.demotions == 1
