"""Figure 10 — effect of tripling workload iterations.

More iterations mean more jobs, stages and cache references, giving MRD
more opportunities (paper: average JCT improves from 62 % to 54 % of
LRU, hit ratio from 94 % to 96 %; DT is the called-out exception whose
DAG does not depend on the iteration knob).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.harness import format_table, sweep_workload
from repro.simulator.config import MAIN_CLUSTER
from repro.sweep.schemes import SchemeSpec
from repro.workloads.registry import get_workload

#: Iterable workloads the paper tripled (DT included to show no effect).
FIG10_WORKLOADS: tuple[str, ...] = ("KM", "LogR", "SVM", "PR", "CC", "SVD++", "DT")
FIG10_FRACTIONS: tuple[float, ...] = (0.25, 0.35, 0.5)


@dataclass(frozen=True)
class Fig10Row:
    workload: str
    jobs_1x: int
    jobs_3x: int
    stages_1x: int
    stages_3x: int
    mrd_jct_1x: float
    mrd_jct_3x: float
    hit_1x: float
    hit_3x: float


def run(
    workloads: tuple[str, ...] = FIG10_WORKLOADS,
    cache_fractions=FIG10_FRACTIONS,
    jobs: int = 1,
    store=None,
) -> list[Fig10Row]:
    schemes = {"LRU": SchemeSpec("LRU"), "MRD": SchemeSpec("MRD")}
    rows: list[Fig10Row] = []
    for name in workloads:
        spec = get_workload(name)
        base_iters = spec.default_iterations
        sweep1 = sweep_workload(
            name, schemes=schemes, cluster=MAIN_CLUSTER,
            cache_fractions=cache_fractions, jobs=jobs, store=store,
        )
        sweep3 = sweep_workload(
            name, schemes=schemes, cluster=MAIN_CLUSTER,
            cache_fractions=cache_fractions,
            iterations=base_iters * 3 if spec.iterations_effective else base_iters,
            jobs=jobs, store=store,
        )
        b1 = sweep1.best_fraction("MRD")
        b3 = sweep3.best_fraction("MRD")
        rows.append(
            Fig10Row(
                workload=name,
                jobs_1x=sweep1.dag.num_jobs,
                jobs_3x=sweep3.dag.num_jobs,
                stages_1x=sweep1.dag.num_stages,
                stages_3x=sweep3.dag.num_stages,
                mrd_jct_1x=sweep1.normalized_jct("MRD", b1),
                mrd_jct_3x=sweep3.normalized_jct("MRD", b3),
                hit_1x=sweep1.get("MRD", b1).hit_ratio,
                hit_3x=sweep3.get("MRD", b3).hit_ratio,
            )
        )
    return rows


def render(rows: list[Fig10Row]) -> str:
    table = [
        (
            r.workload,
            f"{r.jobs_1x}->{r.jobs_3x}", f"{r.stages_1x}->{r.stages_3x}",
            r.mrd_jct_1x, r.mrd_jct_3x,
            f"{r.hit_1x * 100:.0f}%", f"{r.hit_3x * 100:.0f}%",
        )
        for r in rows
    ]
    avg1 = sum(r.mrd_jct_1x for r in rows) / len(rows)
    avg3 = sum(r.mrd_jct_3x for r in rows) / len(rows)
    table.append(("AVERAGE", "", "", avg1, avg3, "", ""))
    return format_table(
        ["Workload", "Jobs 1x->3x", "Stages 1x->3x", "MRD JCT 1x", "MRD JCT 3x",
         "hit 1x", "hit 3x"],
        table,
        title="Figure 10: tripling iterations (JCT normalized to LRU at same iterations)",
    )
