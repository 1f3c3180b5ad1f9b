"""Smoke tests for the figure-regeneration experiment module.

What the figures show is checked by the claims table (tests/bench/
test_claims.py); these tests only verify the experiment plumbing
(tables render, rows appear, runs are shared) at the smallest scale.
"""

import pytest

from repro.bench import experiments


class TestFig4Smoke:
    @pytest.fixture(scope="class")
    def table(self):
        return experiments.fig4_web_remote(page_count=1)

    def test_all_sites_in_table(self, table):
        for code in ("NY", "PA", "MA", "MN", "NM", "CA", "CAN", "IE",
                     "PR", "FI", "KR"):
            assert code in table

    def test_title_and_note(self, table):
        assert "Figure 4" in table
        assert "256 KB TCP windows" in table

    def test_latencies_rendered_in_ms(self, table):
        assert " ms" in table


class TestConfigTables:
    def test_web_configs_cover_three_networks(self):
        labels = [c[0] for c in experiments._WEB_CONFIGS]
        assert labels == ["LAN Desktop", "WAN Desktop", "802.11g PDA"]

    def test_pda_viewport_matches_paper(self):
        assert experiments.PDA_VIEWPORT == (320, 240)

    def test_av_pda_platform_list_matches_paper(self):
        # "Figures 5 and 6 also show 802.11g PDA small-screen results
        # for ICA, RDP, GoToMyPC, and THINC."
        assert set(experiments.AV_PDA_PLATFORMS) == {
            "THINC", "RDP", "ICA", "GoToMyPC"}


class TestCaching:
    def test_web_figures_cached_by_size(self):
        lan = experiments.web_run("THINC", "LAN Desktop", 1)
        assert experiments.web_run("THINC", "LAN Desktop", 1) is lan
        # Figure 4's testbed row reads the same run.
        assert experiments.remote_web(1)["LAN"] is lan
