"""Figures 11 and 12 — what predicts MRD's benefit?

Scatter of per-workload JCT reduction (1 − best full-MRD/LRU) against
(Fig. 11) the workload's average stage reference distance and (Fig. 12)
its average references per stage, with least-squares trendlines.  The
paper reports R² = 0.46 for stage distance and R² = 0.71 for references
per stage — refs/stage is the stronger predictor, and we check the same
ordering holds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dag.analysis import distance_stats, workload_characteristics
from repro.experiments import fig4
from repro.experiments.harness import format_table


@dataclass(frozen=True)
class CorrelationResult:
    workloads: list[str]
    jct_reduction_pct: list[float]
    avg_stage_distance: list[float]
    refs_per_stage: list[float]
    r2_stage_distance: float
    r2_refs_per_stage: float
    slope_stage_distance: float
    slope_refs_per_stage: float


def _linfit_r2(x: list[float], y: list[float]) -> tuple[float, float]:
    """Least-squares slope and R² of y against x."""
    import numpy as np

    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if len(xa) < 2 or np.allclose(xa, xa[0]):
        return 0.0, 0.0
    slope, intercept = np.polyfit(xa, ya, 1)
    pred = slope * xa + intercept
    ss_res = float(np.sum((ya - pred) ** 2))
    ss_tot = float(np.sum((ya - ya.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return float(slope), r2


def run(fig4_rows: list[fig4.Fig4Row] | None = None) -> CorrelationResult:
    """Compute both correlations from Fig. 4's per-workload results."""
    from repro.experiments.harness import build_workload_dag

    rows = fig4_rows if fig4_rows is not None else fig4.run()
    names, reductions, sds, rps = [], [], [], []
    for row in rows:
        dag = build_workload_dag(row.workload)
        names.append(row.workload)
        reductions.append((1 - row.full) * 100)
        sds.append(distance_stats(dag).avg_stage_distance)
        rps.append(workload_characteristics(dag).refs_per_stage)
    slope_sd, r2_sd = _linfit_r2(sds, reductions)
    slope_rp, r2_rp = _linfit_r2(rps, reductions)
    return CorrelationResult(
        workloads=names,
        jct_reduction_pct=reductions,
        avg_stage_distance=sds,
        refs_per_stage=rps,
        r2_stage_distance=r2_sd,
        r2_refs_per_stage=r2_rp,
        slope_stage_distance=slope_sd,
        slope_refs_per_stage=slope_rp,
    )


def render(result: CorrelationResult) -> str:
    table = [
        (w, f"{red:.0f}%", round(sd, 2), round(rp, 2))
        for w, red, sd, rp in zip(
            result.workloads,
            result.jct_reduction_pct,
            result.avg_stage_distance,
            result.refs_per_stage,
        )
    ]
    text = format_table(
        ["Workload", "JCT reduction", "AvgStageDist", "Refs/Stage"],
        table,
        title="Figures 11-12: JCT reduction vs workload characteristics",
    )
    text += (
        f"\nFig.11 trendline: slope={result.slope_stage_distance:.2f}, "
        f"R²={result.r2_stage_distance:.2f} (paper: 0.46)"
        f"\nFig.12 trendline: slope={result.slope_refs_per_stage:.2f}, "
        f"R²={result.r2_refs_per_stage:.2f} (paper: 0.71)"
    )
    return text
