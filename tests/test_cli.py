"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.net import SimClock
from repro.protocol.trace import TraceRecorder, read_trace


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figures_defaults(self):
        args = build_parser().parse_args(["figures"])
        assert args.pages == 8 and args.frames == 120

    def test_demo_network_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--network", "dialup"])


    @pytest.mark.parametrize("argv", [
        ["demo", "--width", "0"],
        ["demo", "--width", "47", "--height", "44"],
        ["demo", "--width", "48", "--height", "43"],
        ["demo", "--height", "16385"],
        ["demo", "--shards", "0"],
        ["figures", "--pages", "0", "--only", "fig2"],
        ["figures", "--frames", "-3"],
    ])
    def test_out_of_range_sizes_are_usage_errors(self, argv, capsys):
        # A usage message and exit status 2, not a traceback from
        # deep inside the framebuffer / window manager / player.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "out of range" in capsys.readouterr().err


class TestSites:
    def test_prints_table(self, capsys):
        assert main(["sites"]) == 0
        out = capsys.readouterr().out
        assert "Seoul, Korea" in out
        assert "256 KB" in out


class TestDemo:
    def test_demo_runs_pixel_exact(self, capsys):
        assert main(["demo", "--width", "200", "--height", "160"]) == 0
        out = capsys.readouterr().out
        assert "pixel-exact client : True" in out
        assert "SFILL" in out

    def test_smallest_accepted_screen_still_runs(self, capsys):
        # The lower --width/--height bound is tight: one pixel less is
        # a usage error (above), this size plays the whole script.
        assert main(["demo", "--width", "48", "--height", "44"]) == 0
        assert "pixel-exact client : True" in capsys.readouterr().out


class TestTrace:
    def test_record_then_show(self, tmp_path, capsys):
        path = str(tmp_path / "s.trace")
        assert main(["trace", "record", path]) == 0
        assert main(["trace", "show", path]) == 0
        out = capsys.readouterr().out
        assert "records" in out
        assert "SFILL" in out
        assert "unparsed  : 0\n" in out

    def test_show_reports_a_frame_cut_short(self, tmp_path, capsys):
        path = tmp_path / "s.trace"
        assert main(["trace", "record", str(path)]) == 0
        records = read_trace(path.read_bytes())
        with open(tmp_path / "cut.trace", "wb") as sink:
            recorder = TraceRecorder(sink, SimClock())
            for record in records[:-1]:
                recorder.record(record.data)
            recorder.record(records[-1].data[:-1])
        capsys.readouterr()
        assert main(["trace", "show", str(tmp_path / "cut.trace")]) == 0
        unparsed = capsys.readouterr().out.split("unparsed  : ")[1]
        assert int(unparsed.split()[0].replace(",", "")) > 0


class TestFiguresFilter:
    def test_unknown_filter_errors(self, capsys):
        assert main(["figures", "--only", "fig99"]) == 2


class TestFiguresSubcommand:
    def test_single_figure_micro_scale(self, capsys):
        # fig4 at the smallest scale: exercises the whole path quickly.
        assert main(["figures", "--only", "fig4", "--pages", "2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "Seoul, Korea" in out
