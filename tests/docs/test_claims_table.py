"""EXPERIMENTS.md's headline table is the committed report's claims table.

``repro report`` renders the claims (``repro.experiments.claims``) as the
headline section of ``paper_report.md``, and CI diffs that file against
a fresh report.  These checks close the chain: the hand-read table in
EXPERIMENTS.md must equal the committed one, and the committed one must
list today's claims with today's paper values and bands.
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments import claims

REPO_ROOT = Path(__file__).resolve().parents[2]


def _table_under(relpath: str, heading: str) -> list[str]:
    """The first markdown table after ``heading`` in ``relpath``."""
    lines = (REPO_ROOT / relpath).read_text().splitlines()
    start = lines.index(heading)
    table = []
    for line in lines[start + 1:]:
        if line.startswith("|"):
            table.append(line)
        elif table:
            break
    return table


def test_experiments_headline_table_equals_the_committed_report():
    documented = _table_under("EXPERIMENTS.md", "## Headline reproduction status")
    committed = _table_under("paper_report.md", "## Headline summary")
    assert documented, "EXPERIMENTS.md lost its headline table"
    assert documented == committed


def test_committed_report_lists_every_claim_with_its_paper_value_and_band():
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in _table_under("paper_report.md", "## Headline summary")[2:]
    ]
    assert [(row[0], row[1], row[3]) for row in rows] == [
        (c.label, c.paper, c.band()) for c in claims.CLAIMS
    ]
    assert all(row[4] == "✓" for row in rows)
