"""The benchmark harness: testbed, platforms, sites, experiments."""

from .experiments import (fig2_web_latency, fig3_web_data, fig4_web_remote,
                          fig5_av_quality, fig6_av_data, fig7_av_remote)
from .platforms import PLATFORMS, Platform, make_platform
from .reporting import format_table
from .sites import REMOTE_SITES, site_link
from .slowmotion import AVRunResult, WebRunResult
from .testbed import (AV_PLATFORMS, WEB_PDA_PLATFORMS, WEB_PLATFORMS,
                      run_av_benchmark, run_web_benchmark)

__all__ = [
    "Platform",
    "PLATFORMS",
    "make_platform",
    "run_web_benchmark",
    "run_av_benchmark",
    "WEB_PLATFORMS",
    "WEB_PDA_PLATFORMS",
    "AV_PLATFORMS",
    "WebRunResult",
    "AVRunResult",
    "REMOTE_SITES",
    "site_link",
    "format_table",
    "fig2_web_latency",
    "fig3_web_data",
    "fig4_web_remote",
    "fig5_av_quality",
    "fig6_av_data",
    "fig7_av_remote",
]
