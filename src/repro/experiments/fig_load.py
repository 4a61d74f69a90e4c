"""Offered-load sweep on a shared multi-tenant cluster.

The paper evaluates one application at a time; a production cluster
runs many concurrently, and cache pressure then depends on *offered
load* — how fast applications arrive relative to how fast they drain.
This experiment streams a fixed mix of applications into one shared
cluster with seeded Poisson arrivals and sweeps the arrival rate, for
every combination of per-application scheme (all-LRU vs all-MRD) and
cross-application arbitration policy (static shares, global reference
distance).  Reported per cell: the cluster-wide aggregate hit ratio,
the p50/p99 application sojourn (JCT measured from each application's
arrival), and the makespan.

At low rates the cluster is effectively single-tenant and the schemes
match their standalone behaviour; as the rate grows, applications
overlap, tenants squeeze one another and the arbitration policy starts
to matter — which is exactly the regime ``global-mrd`` (evict the
block whose own application needs it furthest in the future,
cluster-wide) is designed for.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.harness import cache_mb_for, format_table
from repro.simulator.config import MAIN_CLUSTER
from repro.tenancy.arbitration import ARBITRATIONS
from repro.tenancy.arrivals import PoissonArrivals
from repro.tenancy.engine import AppSpec, MultiTenantSimulator
from repro.workloads.base import WorkloadParams
from repro.workloads.registry import build_workload

#: Application mix cycled over the submitted applications.
LOAD_WORKLOADS: tuple[str, ...] = ("KM", "PR")
#: Poisson arrival rates swept (applications per simulated second).
LOAD_RATES: tuple[float, ...] = (0.01, 0.05, 0.25)
#: Per-application cache schemes compared (every app runs the same one).
LOAD_SCHEMES: tuple[str, ...] = ("LRU", "MRD")
#: Arbitration policies compared at every (rate, scheme) cell.
LOAD_ARBITRATIONS: tuple[str, ...] = tuple(ARBITRATIONS)
NUM_APPS = 6
PARTITIONS = 8
#: Deliberately tighter than the single-app experiments' 0.4: the cache
#: is sized for ONE application, so overlap creates real pressure.
CACHE_FRACTION = 0.25


@dataclass(frozen=True)
class LoadRow:
    """One (rate, scheme, arbitration) cell of the load sweep."""

    rate: float
    scheme: str
    arbitration: str
    num_apps: int
    hit_ratio: float
    jct_p50: float
    jct_p99: float
    mean_jct: float
    makespan: float
    evictions: int


def _cache_mb(workloads: tuple[str, ...], fraction: float) -> float:
    """Per-node cache sized for the largest application in the mix."""
    from repro.dag.dag_builder import build_dag

    sizes = []
    for name in workloads:
        dag = build_dag(build_workload(name, WorkloadParams(partitions=PARTITIONS)))
        sizes.append(cache_mb_for(dag, fraction, MAIN_CLUSTER))
    return max(sizes)


def run(
    rates: tuple[float, ...] = LOAD_RATES,
    schemes: tuple[str, ...] = LOAD_SCHEMES,
    arbitrations: tuple[str, ...] = LOAD_ARBITRATIONS,
    workloads: tuple[str, ...] = LOAD_WORKLOADS,
    num_apps: int = NUM_APPS,
    cache_fraction: float = CACHE_FRACTION,
    seed: int = 0,
) -> list[LoadRow]:
    """Sweep offered load × scheme × arbitration on one shared cluster."""
    config = MAIN_CLUSTER.with_cache(_cache_mb(workloads, cache_fraction))
    rows: list[LoadRow] = []
    for rate in rates:
        for scheme in schemes:
            apps = [
                AppSpec(
                    workload=workloads[i % len(workloads)],
                    scheme=scheme,
                    partitions=PARTITIONS,
                    seed=i,
                )
                for i in range(num_apps)
            ]
            for arbitration in arbitrations:
                metrics = MultiTenantSimulator(
                    apps,
                    config,
                    arrivals=PoissonArrivals(rate=rate, seed=seed),
                    arbitration=arbitration,
                ).run()
                rows.append(
                    LoadRow(
                        rate=rate,
                        scheme=scheme,
                        arbitration=arbitration,
                        num_apps=num_apps,
                        hit_ratio=metrics.aggregate_hit_ratio,
                        jct_p50=metrics.jct_p50,
                        jct_p99=metrics.jct_p99,
                        mean_jct=metrics.mean_jct,
                        makespan=metrics.makespan,
                        evictions=metrics.total_evictions,
                    )
                )
    return rows


def render(rows: list[LoadRow]) -> str:
    table = [
        (
            r.rate, r.scheme, r.arbitration, r.num_apps,
            f"{r.hit_ratio * 100:.1f}%",
            round(r.jct_p50, 2), round(r.jct_p99, 2),
            round(r.mean_jct, 2), round(r.makespan, 2), r.evictions,
        )
        for r in rows
    ]
    return format_table(
        ["Rate", "Scheme", "Arbitration", "Apps", "Hit",
         "JCT p50", "JCT p99", "Mean JCT", "Makespan", "Evictions"],
        table,
        title="Offered load vs cache performance (multi-tenant shared cluster)",
    )
