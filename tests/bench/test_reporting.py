"""Tests for table formatting helpers."""

from repro.bench.reporting import (format_mbytes, format_ms, format_pct,
                                   format_table)


class TestFormatters:
    def test_ms(self):
        assert format_ms(0.0621) == "62 ms"
        assert format_ms(2.5) == "2500 ms"

    def test_bytes(self):
        assert format_mbytes(117e6) == "117.0 MB"
        assert format_mbytes(35_100) == "35.1 KB"

    def test_pct(self):
        assert format_pct(0.998) == "99.8%"
        assert format_pct(1.0) == "100.0%"


class TestTable:
    def test_alignment_and_structure(self):
        table = format_table("T", ["a", "bee"],
                             [["x", 1], ["long", 22]])
        lines = table.splitlines()
        assert lines[1] == "T"
        header = next(l for l in lines if l.startswith("a"))
        rows = lines[lines.index(header) + 2 :]
        assert rows[0].startswith("x")
        assert rows[1].startswith("long")
        # Columns align: 'bee' column starts at the same offset.
        assert header.index("bee") == rows[1].index("22")

    def test_note_rendered(self):
        table = format_table("T", ["a"], [["1"]], note="hello")
        assert table.endswith("note: hello")

    def test_empty_rows_ok(self):
        table = format_table("T", ["a", "b"], [])
        assert "T" in table

