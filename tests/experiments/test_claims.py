"""The claims table: each row reads its value and fails alone.

``passing()`` is a hand-built set of reduced rows, rounded from the
committed report, on which every claim holds.  Each case pushes one
value out of one band and checks that exactly that row fails, so a row
that reads the wrong figure, or a band that also catches its
neighbours, shows up here without running the grid.  ``cmd_report``
turns any failure into exit status 1 (checked on the trimmed grid of
``test_report``).
"""

from __future__ import annotations

import argparse
import dataclasses

import pytest

from repro.cli import cmd_report
from repro.experiments import claims, report
from repro.experiments.fig4 import Fig4Row
from repro.experiments.fig5 import Fig5Row
from repro.experiments.fig6 import Fig6Row
from repro.experiments.fig7 import Fig7Result
from repro.experiments.fig8 import Fig8Row
from repro.experiments.fig9 import Fig9Row
from repro.experiments.fig10 import Fig10Row
from repro.experiments.fig11_12 import CorrelationResult
from tests.experiments.test_report import trim_grid

#: workload → (evict_only, prefetch_only, full, lru_hit, mrd_hit)
FIG4 = {
    "KM": (0.78, 0.96, 0.48, 0.00, 0.98), "LinR": (0.91, 0.85, 0.76, 0.00, 0.91),
    "LogR": (0.92, 0.87, 0.78, 0.00, 0.91), "SVM": (0.93, 0.85, 0.78, 0.00, 1.00),
    "DT": (0.92, 0.87, 0.80, 0.00, 0.93), "MF": (0.91, 0.79, 0.75, 0.53, 1.00),
    "PR": (0.52, 0.81, 0.42, 0.38, 0.84), "TC": (0.81, 0.98, 0.79, 0.17, 1.00),
    "SP": (0.48, 0.91, 0.45, 0.34, 0.85), "LP": (0.40, 0.79, 0.36, 0.37, 0.88),
    "SVD++": (0.61, 0.87, 0.51, 0.47, 0.86), "CC": (0.54, 0.83, 0.51, 0.37, 0.81),
    "SCC": (0.71, 0.89, 0.62, 0.59, 0.93), "PO": (0.53, 0.80, 0.50, 0.35, 0.79),
}
#: workload → MRD ÷ LRC (Fig. 5) and MRD ÷ MemTune (Fig. 6) JCT.
FIG5 = {"KM": 0.75, "PR": 0.62, "SVD++": 0.96, "CC": 0.61, "SCC": 0.94, "PO": 0.61,
        "LP": 0.98, "MF": 0.92}
FIG6 = {"PR": 0.30, "LogR": 0.94, "KM": 0.45, "CC": 0.32, "SVD++": 0.39, "PO": 0.31,
        "LP": 1.00, "TC": 0.83}
#: workload → (jobs 1x, 3x, stages 1x, 3x, MRD JCT 1x, 3x)
FIG10 = {
    "KM": (17, 47, 19, 49, 0.48, 0.45), "LogR": (6, 18, 9, 21, 0.87, 0.90),
    "SVM": (10, 26, 29, 77, 0.78, 0.77), "PR": (7, 17, 75, 440, 0.60, 0.57),
    "CC": (6, 14, 49, 285, 0.63, 0.61), "SVD++": (14, 38, 124, 796, 0.62, 0.61),
    "DT": (10, 10, 16, 16, 0.92, 0.92),
}


def _versus(ratios, row_type) -> list:
    """Fig. 5/6 rows from MRD's JCT ratio to the rival policy."""
    return [row_type(w, 1.0, ratio, ratio, (1 - ratio) * 100) for w, ratio in ratios.items()]


def passing() -> claims.Reduced:
    fig7 = Fig7Result(
        workload="SVD++", fractions=[0.1, 0.45, 1.0], cache_mb=[8.0, 22.3, 49.5],
        jct={"LRU": [7.68, 7.18, 5.36], "LRC": [7.68, 7.57, 3.14], "MRD": [6.92, 5.94, 3.04]},
        hit={"LRU": [0.0, 0.16, 0.89], "LRC": [0.0, 0.03, 0.97], "MRD": [0.27, 0.61, 0.98]},
        target_hit=0.6, cache_to_reach_target={"LRU": 49.5, "LRC": 49.5, "MRD": 22.3},
    )
    return {
        "fig4": [Fig4Row(w, 0.7, *values, None) for w, values in FIG4.items()],
        "fig5": _versus(FIG5, Fig5Row),
        "fig6": _versus(FIG6, Fig6Row),
        "fig7": fig7,
        "fig8": [Fig8Row("LP", 3.78, 0.53, 0.59, 0.71, 0.83),
                 Fig8Row("KM", 1.12, 0.48, 0.48, 0.98, 0.98)],
        "fig9": [Fig9Row("KM", 17, 10.7, 0.48, 0.77, 0.98, 0.71),
                 Fig9Row("TC", 2, 0.5, 0.79, 0.82, 1.00, 0.93)],
        "fig10": [Fig10Row(w, *values, 0.9, 0.9) for w, values in FIG10.items()],
        "fig11_12": CorrelationResult(
            workloads=[], jct_reduction_pct=[], avg_stage_distance=[], refs_per_stage=[],
            r2_stage_distance=0.09, r2_refs_per_stage=0.74,
            slope_stage_distance=0.69, slope_refs_per_stage=30.15,
        ),
    }


def _failed_labels(reduced) -> list[str]:
    return [c.label for c, value in claims.evaluate(reduced) if not c.holds(value)]


def test_every_claim_holds_on_the_committed_values():
    assert _failed_labels(passing()) == []


def _replace(rows, workload, **changes):
    return [dataclasses.replace(r, **changes) if r.workload == workload else r for r in rows]


def _fig4_full_average_070(r):
    # Raise the mid-ranked workloads only, so the best and worst rows,
    # the I/O-vs-CPU gap and eviction's share of the gain stay in band.
    raised = ("KM", "SVM", "MF", "TC", "SP", "SCC")
    r["fig4"] = [
        dataclasses.replace(x, full=0.86, evict_only=0.90) if x.workload in raised else x
        for x in r["fig4"]
    ]


PUSHES = {
    "Full MRD avg JCT vs LRU (Fig. 4)": _fig4_full_average_070,
    "MRD gain vs MemTune on PR (Fig. 6)": lambda r: r.update(
        fig6=_replace(r["fig6"], "PR", improvement_pct=40.0)),
    "Ad-hoc ÷ recurring JCT on KM (Fig. 9)": lambda r: r.update(
        fig9=_replace(r["fig9"], "KM", adhoc_jct=0.48)),
    "DT jobs + stages changed at 3× iterations (Fig. 10)": lambda r: r.update(
        fig10=_replace(r["fig10"], "DT", jobs_3x=11, stages_3x=15)),
    "R² of gain vs refs per stage (Fig. 12)": lambda r: r.update(
        fig11_12=dataclasses.replace(r["fig11_12"], r2_refs_per_stage=0.5)),
}


@pytest.mark.parametrize("label", sorted(PUSHES))
def test_one_value_out_of_band_fails_exactly_its_row(label):
    reduced = passing()
    PUSHES[label](reduced)
    assert _failed_labels(reduced) == [label]


def test_fig4_full_average_push_reads_070():
    reduced = passing()
    _fig4_full_average_070(reduced)
    (full_avg,) = (v for c, v in claims.evaluate(reduced) if c.label.startswith("Full MRD avg"))
    assert full_avg == pytest.approx(0.70, abs=0.005)


def test_missing_workload_reads_nan_and_fails():
    reduced = passing()
    reduced["fig6"] = [r for r in reduced["fig6"] if r.workload != "LogR"]
    assert _failed_labels(reduced) == ["MRD ÷ MemTune JCT on LogR (Fig. 6)"]


def test_failures_name_the_row_and_band():
    reduced = passing()
    PUSHES["Ad-hoc ÷ recurring JCT on KM (Fig. 9)"](reduced)
    (line,) = claims.failures(claims.evaluate(reduced))
    assert line == "Ad-hoc ÷ recurring JCT on KM (Fig. 9): measured 1.00, band 1.30 – 1.90"


def _report_args(tmp_path):
    return argparse.Namespace(output=str(tmp_path / "report.md"), jobs=1, store=None)


def test_cmd_report_exits_1_and_names_the_failed_rows(tmp_path, monkeypatch, capsys):
    trim_grid(monkeypatch)
    assert cmd_report(_report_args(tmp_path)) == 1
    err = capsys.readouterr().err
    # Fig. 6's trimmed grid keeps only PR, so the LogR row cannot be read.
    assert "claim out of band: MRD ÷ MemTune JCT on LogR (Fig. 6): measured nan" in err
    assert "✗ out of band" in (tmp_path / "report.md").read_text()


def test_cmd_report_exits_0_when_every_claim_holds(tmp_path, monkeypatch):
    trim_grid(monkeypatch)
    monkeypatch.setattr(report.claims, "CLAIMS", [])
    assert cmd_report(_report_args(tmp_path)) == 0
