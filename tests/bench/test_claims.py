"""One test per row of ``repro.bench.claims.CLAIMS``: ``tier1`` rows in
tier-1; the rest, the seeded breaks and the EXPERIMENTS.md check carry
the ``claims`` mark, which pytest.ini deselects and ``make claims``
selects."""

from pathlib import Path

import pytest

from repro.bench import claims, experiments
from repro.cli import main
from repro.codec import Encoding
from repro.core import THINCServer
from repro.core.scheduler import FIFOScheduler, SRSFScheduler
from repro.core.translation import THINCDriver
from repro.protocol.commands import RawCommand
from repro.video import yuv

ROWS = {claim.id: claim for claim in claims.CLAIMS}
BLOCK = ("<!-- BEGIN claims: python -m repro figures --only claims -->\n",
         "<!-- END claims -->\n")


@pytest.mark.parametrize("claim", [pytest.param(
    claim, id=claim.id, marks=() if claim.tier1 else pytest.mark.claims)
    for claim in claims.CLAIMS])
def test_claim(claim):
    values = claim.values(claims.Scale())
    assert claim.holds(values), (
        f"{claim.id} ({claim.where}: {claim.paper}): {claim.quantity} = "
        f"{claim.show(values)}, outside {claim.band_text()}")


@pytest.mark.claims
def test_experiments_md_commits_the_rendered_claims(capsys):
    assert main(["figures", "--only", "claims"]) == 0
    text = (Path(__file__).parents[2] / "EXPERIMENTS.md").read_text()
    assert text.split(BLOCK[0])[1].split(BLOCK[1])[0] == \
        capsys.readouterr().out, "stale: paste in its new output"


def offscreen_replay_off(monkeypatch):
    real = THINCDriver._copy_offscreen_out

    def raw_only(self, *args, **kw):  # a pixmap's queue is never read
        queues, self._offscreen = self._offscreen, {}
        try:
            real(self, *args, **kw)
        finally:
            self._offscreen = queues

    monkeypatch.setattr(THINCDriver, "_copy_offscreen_out", raw_only)


def fifo_for_srsf(monkeypatch):
    for name in ("bucket", "effective_bucket", "order"):
        monkeypatch.setattr(SRSFScheduler, name, getattr(FIFOScheduler, name))


def client_side_resize(monkeypatch):  # full-size updates, any viewport
    real = THINCServer.attach_client
    monkeypatch.setattr(THINCServer, "attach_client",
                        lambda self, conn, viewport=None: real(self, conn))


def video_as_raw(monkeypatch):  # uncompressed: PNG would only be slower
    def as_raw(self, stream, yuv_planes, dst):
        rgba = yuv.decode_frame(stream.pixel_format, yuv_planes,
                                stream.src_width, stream.src_height)
        self.sink.submit(RawCommand(dst, yuv.scale_rgb(
            rgba, dst.width, dst.height), Encoding.NONE))

    monkeypatch.setattr(THINCDriver, "video_put", as_raw)


@pytest.mark.claims
@pytest.mark.parametrize("row, seed", [
    ("ablation.offscreen-latency", offscreen_replay_off),
    ("ablation.srsf-echo", fifo_for_srsf),
    ("fig3.thinc-pda-resize", client_side_resize),
    ("fig6.thinc-24mbps", video_as_raw)])
def test_a_seeded_break_fails_its_row(monkeypatch, row, seed):
    monkeypatch.setattr(experiments, "_runs", {})  # fresh runs, restored
    seed(monkeypatch)
    values = ROWS[row].values(claims.Scale())
    assert not ROWS[row].holds(values), f"{row} held: {values}"
