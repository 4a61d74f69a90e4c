"""Figure 8 — stage distance vs job distance as the MRD metric.

LabelPropagation has a high ratio of active stages to jobs, so the
coarse job-distance metric (all references within a job tie at 0)
degrades MRD badly; K-Means has ≈1 stage per job so the two metrics are
nearly equivalent.  Reports normalized JCT (vs LRU) and hit ratio for
MRD-stage and MRD-job on both workloads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.harness import format_table, sweep_workload
from repro.simulator.config import MAIN_CLUSTER
from repro.sweep.schemes import SchemeSpec

FIG8_WORKLOADS: tuple[str, ...] = ("LP", "KM")
FIG8_FRACTIONS: tuple[float, ...] = (0.25, 0.35, 0.5)


@dataclass(frozen=True)
class Fig8Row:
    workload: str
    active_stages_per_job: float
    stage_metric_jct: float
    job_metric_jct: float
    stage_metric_hit: float
    job_metric_hit: float


def run(
    workloads: tuple[str, ...] = FIG8_WORKLOADS,
    cache_fractions=FIG8_FRACTIONS,
    jobs: int = 1,
    store=None,
) -> list[Fig8Row]:
    schemes = {
        "LRU": SchemeSpec("LRU"),
        "MRD-stage": SchemeSpec("MRD", metric="stage"),
        "MRD-job": SchemeSpec("MRD", metric="job"),
    }
    rows: list[Fig8Row] = []
    for name in workloads:
        sweep = sweep_workload(
            name, schemes=schemes, cluster=MAIN_CLUSTER,
            cache_fractions=cache_fractions, jobs=jobs, store=store,
        )
        best = min(
            sweep.fractions(), key=lambda f: sweep.normalized_jct("MRD-stage", f)
        )
        dag = sweep.dag
        rows.append(
            Fig8Row(
                workload=name,
                active_stages_per_job=dag.num_active_stages / dag.num_jobs,
                stage_metric_jct=sweep.normalized_jct("MRD-stage", best),
                job_metric_jct=sweep.normalized_jct("MRD-job", best),
                stage_metric_hit=sweep.get("MRD-stage", best).hit_ratio,
                job_metric_hit=sweep.get("MRD-job", best).hit_ratio,
            )
        )
    return rows


def render(rows: list[Fig8Row]) -> str:
    table = [
        (
            r.workload, round(r.active_stages_per_job, 2),
            r.stage_metric_jct, r.job_metric_jct,
            f"{r.stage_metric_hit * 100:.0f}%", f"{r.job_metric_hit * 100:.0f}%",
        )
        for r in rows
    ]
    return format_table(
        ["Workload", "ActiveStages/Job", "MRD-stage JCT", "MRD-job JCT",
         "stage hit", "job hit"],
        table,
        title="Figure 8: stage-distance vs job-distance metric (JCT normalized to LRU)",
    )
