"""Tripwire: every docs/PERF.md section that ``src/`` quotes by title
is a heading there.

Perf sections are folded into one-row table entries as later PRs land,
and a comment that still names the old section then points at nothing.
A citation reads ``docs/PERF.md, "Title"`` or ``docs/PERF.md, row N of
"Title"`` (either may wrap across comment or docstring lines).
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CITATION = re.compile(r'docs/PERF\.md[,\s\w–-]{0,30}?"([^"]+)"')


def _headings():
    text = (ROOT / "docs/PERF.md").read_text()
    titles = re.findall(r"^#+\s+(.+?)\s*$", text, re.MULTILINE)
    return set(titles) | {title.split(":")[0] for title in titles}


def _citations():
    for path in sorted((ROOT / "src").rglob("*.py")):
        # Join wrapped lines, dropping comment markers, so a title
        # broken across lines reads as one.
        flat = re.sub(r"\s*\n\s*(?:#\s*)?", " ", path.read_text())
        for match in CITATION.finditer(flat):
            yield path.relative_to(ROOT), match.group(1)


def test_every_quoted_perf_section_is_a_heading():
    headings = _headings()
    cited = list(_citations())
    assert cited
    assert [(str(path), title) for path, title in cited
            if title not in headings] == []
