"""Plain-text tables for the experiment results.

Every figure in the paper's evaluation is regenerated as a table of the
same series: the bench harness prints these so a run's output can be
diffed against EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

__all__ = ["format_table", "format_mbytes", "format_ms", "format_pct"]


def format_ms(seconds: float) -> str:
    return f"{seconds * 1000:.0f} ms"


def format_mbytes(nbytes: float) -> str:
    if nbytes >= 1e6:
        return f"{nbytes / 1e6:.1f} MB"
    return f"{nbytes / 1e3:.1f} KB"


def format_pct(fraction: float) -> str:
    return f"{fraction * 100:.1f}%"


def format_table(title: str, headers: Sequence[str],
                 rows: Iterable[Sequence[object]],
                 note: Optional[str] = None) -> str:
    """Render an aligned plain-text table with a title rule."""
    rendered: List[List[str]] = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    rule = "=" * max(len(title), sum(widths) + 2 * (len(widths) - 1))
    out = [rule, title, rule, line(headers),
           line(["-" * w for w in widths])]
    out.extend(line(row) for row in rendered)
    if note:
        out.append("")
        out.append(f"note: {note}")
    return "\n".join(out)

