"""The markdown report generator and the one grid behind it.

A full report takes 15–25 s, so the structure test trims
every swept figure to a tiny grid (patching its ``cells`` and
``reduce`` alike) and checks the document; the real thing runs via
``python -m repro report``.  The full grid is pinned by listing its
cells, without running them.
"""

import functools
import hashlib

from repro.experiments import fig4, fig5, fig6, fig7, fig8, fig9, fig10, report
from repro.experiments.report import generate_report

#: SHA-256 (first 16 hex chars) of the newline-joined sorted distinct
#: fingerprints of the report's grid.
PINNED_REPORT_GRID = "05b7e0993d3fce78"

TRIMMED = {
    fig4: dict(workloads=("SP",), cache_fractions=(0.4,)),
    fig5: dict(workloads=("CC",), cache_fractions=(0.4,)),
    fig6: dict(workloads=("PR",), cache_fractions=(0.4,)),
    fig7: dict(fractions=(0.3, 0.8)),
    fig8: dict(cache_fractions=(0.4,)),
    fig9: dict(cache_fractions=(0.4,)),
    fig10: dict(workloads=("CC",), cache_fractions=(0.4,)),
}


def test_report_structure(tmp_path, monkeypatch):
    for figure, kwargs in TRIMMED.items():
        monkeypatch.setattr(figure, "cells", functools.partial(figure.cells, **kwargs))
        reduce_kwargs = dict(kwargs, target_hit=0.3) if figure is fig7 else kwargs
        monkeypatch.setattr(figure, "reduce", functools.partial(figure.reduce, **reduce_kwargs))
    calls = []
    run_cells = report.run_cells

    def counting_run_cells(cells, **kwargs):
        calls.append(len(cells))
        return run_cells(cells, **kwargs)

    monkeypatch.setattr(report, "run_cells", counting_run_cells)

    out = tmp_path / "report.md"
    text = generate_report(out=out)
    assert out.exists() and out.read_text() == text
    for heading in (
        "Table 1", "Table 3", "Figure 2", "Figure 4", "Figure 5",
        "Figure 6", "Figure 7", "Figure 8", "Figure 9", "Figure 10",
        "Figures 11-12", "Headline summary",
    ):
        assert heading in text, heading
    # Figures 4-10 are one grid, run by one call.
    assert calls == [len(report.cells())]


def test_report_grid_is_pinned():
    cells = report.cells()
    distinct = sorted({cell.fingerprint() for cell in cells})
    assert (len(cells), len(distinct)) == (765, 711)
    digest = hashlib.sha256("\n".join(distinct).encode()).hexdigest()[:16]
    assert digest == PINNED_REPORT_GRID
