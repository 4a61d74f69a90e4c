"""Figure 9 — ad-hoc vs recurring DAG availability.

K-Means spans 17 jobs with heavy cross-job reuse: without the
application-wide DAG (ad-hoc mode) MRD assumes infinite distances
across job boundaries and erroneously evicts/purges blocks that later
jobs need.  TriangleCount has only 2 jobs and 0.8 references per RDD,
so the two modes are indistinguishable.  Reports normalized JCT (vs
LRU) and hit ratios for recurring and ad-hoc MRD.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.harness import format_table, sweep_workload
from repro.simulator.config import MAIN_CLUSTER
from repro.sweep.schemes import SchemeSpec

FIG9_WORKLOADS: tuple[str, ...] = ("KM", "TC")
FIG9_FRACTIONS: tuple[float, ...] = (0.35, 0.5, 0.7)


@dataclass(frozen=True)
class Fig9Row:
    workload: str
    num_jobs: int
    refs_per_rdd: float
    recurring_jct: float
    adhoc_jct: float
    recurring_hit: float
    adhoc_hit: float


def run(
    workloads: tuple[str, ...] = FIG9_WORKLOADS,
    cache_fractions=FIG9_FRACTIONS,
    jobs: int = 1,
    store=None,
) -> list[Fig9Row]:
    schemes = {
        "LRU": SchemeSpec("LRU"),
        "MRD-recurring": SchemeSpec("MRD", mode="recurring"),
        "MRD-adhoc": SchemeSpec("MRD", mode="adhoc"),
    }
    rows: list[Fig9Row] = []
    for name in workloads:
        sweep = sweep_workload(
            name, schemes=schemes, cluster=MAIN_CLUSTER,
            cache_fractions=cache_fractions, jobs=jobs, store=store,
        )
        best = min(
            sweep.fractions(), key=lambda f: sweep.normalized_jct("MRD-recurring", f)
        )
        dag = sweep.dag
        total_reads = sum(p.reference_count for p in dag.profiles.values())
        rows.append(
            Fig9Row(
                workload=name,
                num_jobs=dag.num_jobs,
                refs_per_rdd=total_reads / max(len(dag.profiles), 1),
                recurring_jct=sweep.normalized_jct("MRD-recurring", best),
                adhoc_jct=sweep.normalized_jct("MRD-adhoc", best),
                recurring_hit=sweep.get("MRD-recurring", best).hit_ratio,
                adhoc_hit=sweep.get("MRD-adhoc", best).hit_ratio,
            )
        )
    return rows


def render(rows: list[Fig9Row]) -> str:
    table = [
        (
            r.workload, r.num_jobs, round(r.refs_per_rdd, 2),
            r.recurring_jct, r.adhoc_jct,
            f"{r.recurring_hit * 100:.0f}%", f"{r.adhoc_hit * 100:.0f}%",
        )
        for r in rows
    ]
    return format_table(
        ["Workload", "Jobs", "Refs/RDD", "Recurring JCT", "Ad-hoc JCT",
         "rec hit", "adhoc hit"],
        table,
        title="Figure 9: recurring (full DAG) vs ad-hoc (per-job DAG) MRD",
    )
