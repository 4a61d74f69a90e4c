"""Elastic membership — cache management under cluster churn.

The paper's clusters are static; real deployments autoscale.  This
experiment injects random membership churn (seeded joins and
decommissions at stage boundaries, sticky rendezvous placement so a
join never reshuffles existing homes) and asks two questions: how much
of each scheme's performance survives churn, and whether
reference-distance-aware rebalancing — migrating a retiring node's
lowest-distance (most urgent) blocks instead of dropping its cache —
closes the gap.  Every (scheme, rebalance) pair at a given churn rate
replays the *same* membership history (the churn seed is pinned), so
differences are attributable to cache management alone; each cell is
normalized against the same scheme's churn-free run.  LRU migrates
blindly (it tracks no distances), so the MRD-vs-LRU delta under
``migrate`` shows the value of choosing *what* to carry, not just
carrying something.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.experiments.harness import format_table
from repro.simulator.config import MAIN_CLUSTER
from repro.sweep.runner import run_cells
from repro.sweep.schemes import SchemeSpec
from repro.sweep.spec import CellSpec

ELASTIC_WORKLOADS: tuple[str, ...] = ("KM", "PR")
#: Per-stage-boundary probability of a membership event.
CHURN_RATES: tuple[float, ...] = (0.0, 0.4, 0.8)
REBALANCE_POLICIES: tuple[str, ...] = ("drop", "migrate")
CACHE_FRACTION = 0.4
#: Pinned so every scheme/rebalance cell at one churn rate replays the
#: identical membership history.
CHURN_SEED = 0

_SCHEMES = {"LRU": SchemeSpec("LRU"), "MRD": SchemeSpec("MRD")}


@dataclass(frozen=True)
class ElasticRow:
    workload: str
    scheme: str
    churn_rate: float
    rebalance: str
    jct: float
    #: JCT relative to the same scheme with static membership.
    norm_jct: float
    hit_ratio: float
    nodes_joined: int
    nodes_decommissioned: int
    rebalanced_blocks: int
    rebalanced_mb: float
    dropped_blocks: int


def run(
    workloads: tuple[str, ...] = ELASTIC_WORKLOADS,
    churn_rates: tuple[float, ...] = CHURN_RATES,
    rebalances: tuple[str, ...] = REBALANCE_POLICIES,
    cache_fraction: float = CACHE_FRACTION,
    jobs: int = 1,
    store=None,
) -> list[ElasticRow]:
    plan: list[tuple[CellSpec, CellSpec]] = []  # (static baseline, churn cell)
    for name in workloads:
        for scheme_name, spec in _SCHEMES.items():
            baseline = CellSpec(
                workload=name,
                scheme=scheme_name,
                scheme_spec=spec,
                cluster=MAIN_CLUSTER.name,
                cache_fraction=cache_fraction,
                placement="rendezvous",
            )
            for rate in churn_rates:
                if rate == 0:
                    plan.append((baseline, baseline))
                    continue
                for rebalance in rebalances:
                    churned = replace(
                        baseline,
                        churn_rate=rate,
                        churn_seed=CHURN_SEED,
                        rebalance=rebalance,
                    )
                    plan.append((baseline, churned))
    cells = [cell for pair in plan for cell in pair]  # dedup is run_cells' job
    outcome = run_cells(cells, jobs=jobs, store=store)
    outcome.raise_on_error()

    rows: list[ElasticRow] = []
    for baseline_cell, churn_cell in plan:
        baseline = outcome.metrics_for(baseline_cell)
        m = outcome.metrics_for(churn_cell)
        rows.append(
            ElasticRow(
                workload=churn_cell.workload,
                scheme=churn_cell.scheme,
                churn_rate=churn_cell.churn_rate,
                rebalance=churn_cell.rebalance if churn_cell.churn_rate else "-",
                jct=m.jct,
                norm_jct=m.normalized_jct(baseline),
                hit_ratio=m.hit_ratio,
                nodes_joined=m.nodes_joined,
                nodes_decommissioned=m.nodes_decommissioned,
                rebalanced_blocks=m.rebalanced_blocks,
                rebalanced_mb=m.rebalanced_mb,
                dropped_blocks=m.decommission_dropped_blocks,
            )
        )
    return rows


def render(rows: list[ElasticRow]) -> str:
    table = [
        (
            r.workload, r.scheme, r.churn_rate, r.rebalance,
            round(r.jct, 2), round(r.norm_jct, 3),
            f"{r.hit_ratio * 100:.0f}%",
            f"+{r.nodes_joined}/-{r.nodes_decommissioned}",
            r.rebalanced_blocks, round(r.rebalanced_mb, 1), r.dropped_blocks,
        )
        for r in rows
    ]
    return format_table(
        ["Workload", "Scheme", "Churn", "Rebalance", "JCT", "vs static",
         "Hit", "Nodes", "Migrated", "MB", "Dropped"],
        table,
        title="Elastic membership (churn rate x rebalance policy, per scheme)",
    )
