"""Control-latency sensitivity — how coordination delay erodes MRD.

MRD is a *centralized* design: purge and prefetch orders, distance-table
broadcasts and cache-status reports all cross the driver↔worker control
plane.  The paper runs on a LAN where that latency is negligible; this
experiment asks how much of MRD's advantage survives when it is not.
Each workload×scheme cell is simulated under the ``rpc`` control plane
at increasing one-way latency and normalized against the same scheme on
the ``instant`` plane (latency 0).  LRU exchanges no distance state —
its orders-free control traffic cannot change eviction decisions — so
its row stays flat at 1.0 and acts as the control group, while MRD
degrades as purges land late, prefetches miss their stage and workers
evict against stale distance views.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.experiments.harness import format_table
from repro.simulator.config import MAIN_CLUSTER
from repro.sweep.runner import run_cells
from repro.sweep.schemes import SchemeSpec
from repro.sweep.spec import CellSpec

CONTROL_WORKLOADS: tuple[str, ...] = ("KM", "PR")
#: One-way control-message latencies (seconds of simulated time).
CONTROL_LATENCIES: tuple[float, ...] = (0.0, 0.5, 2.0, 8.0)
CACHE_FRACTION = 0.4

_SCHEMES = {"LRU": SchemeSpec("LRU"), "MRD": SchemeSpec("MRD")}


@dataclass(frozen=True)
class ControlLatencyRow:
    workload: str
    scheme: str
    latency_s: float
    jct: float
    #: JCT relative to the same scheme under the instant plane.
    norm_jct: float
    hit_ratio: float
    msgs_sent: int
    msgs_delivered: int
    stale_orders: int
    mean_order_delay: float


def run(
    workloads: tuple[str, ...] = CONTROL_WORKLOADS,
    latencies: tuple[float, ...] = CONTROL_LATENCIES,
    cache_fraction: float = CACHE_FRACTION,
    jobs: int = 1,
    store=None,
) -> list[ControlLatencyRow]:
    plan: list[tuple[CellSpec, CellSpec]] = []  # (instant baseline, rpc cell)
    for name in workloads:
        for scheme_name, spec in _SCHEMES.items():
            baseline = CellSpec(
                workload=name,
                scheme=scheme_name,
                scheme_spec=spec,
                cluster=MAIN_CLUSTER.name,
                cache_fraction=cache_fraction,
            )
            for latency in latencies:
                rpc = replace(
                    baseline, control_plane="rpc", control_latency=latency
                )
                plan.append((baseline, rpc))
    cells = [cell for pair in plan for cell in pair]  # dedup is run_cells' job
    outcome = run_cells(cells, jobs=jobs, store=store)
    outcome.raise_on_error()

    rows: list[ControlLatencyRow] = []
    for baseline_cell, rpc_cell in plan:
        baseline = outcome.metrics_for(baseline_cell)
        m = outcome.metrics_for(rpc_cell)
        rows.append(
            ControlLatencyRow(
                workload=rpc_cell.workload,
                scheme=rpc_cell.scheme,
                latency_s=rpc_cell.control_latency or 0.0,
                jct=m.jct,
                norm_jct=m.normalized_jct(baseline),
                hit_ratio=m.hit_ratio,
                msgs_sent=m.control.sent,
                msgs_delivered=m.control.delivered,
                stale_orders=m.control.stale_orders,
                mean_order_delay=m.control.mean_order_delay,
            )
        )
    return rows


def render(rows: list[ControlLatencyRow]) -> str:
    table = [
        (
            r.workload, r.scheme, r.latency_s,
            round(r.jct, 2), round(r.norm_jct, 3),
            f"{r.hit_ratio * 100:.0f}%",
            f"{r.msgs_delivered}/{r.msgs_sent}",
            r.stale_orders, round(r.mean_order_delay, 2),
        )
        for r in rows
    ]
    return format_table(
        ["Workload", "Scheme", "Latency", "JCT", "vs instant", "Hit",
         "Msgs", "Stale", "OrderDelay"],
        table,
        title="Control-plane latency sensitivity (rpc vs instant, per scheme)",
    )
