"""Result export: JSON/CSV serialization of run metrics.

Experiment pipelines that post-process results (plotting, regression
tracking) consume these instead of parsing the human-readable tables.
:func:`metrics_to_dict` / :func:`metrics_from_dict` form a *lossless*
round trip — the sweep result store (``repro.sweep.store``) relies on
it to serve cached cells as full :class:`RunMetrics` objects and to
compare parallel and serial sweep runs byte-for-byte.
"""

from __future__ import annotations

import csv
from collections.abc import Iterable
from pathlib import Path

from repro.cluster.block_manager import BlockManagerStats
from repro.control.plane import ControlPlaneStats
from repro.simulator.metrics import RunMetrics, StageRecord


def metrics_to_dict(metrics: RunMetrics) -> dict:
    """Flatten one run into JSON-serializable primitives."""
    s = metrics.stats
    return {
        "workload": metrics.workload,
        "scheme": metrics.scheme,
        "jct": metrics.jct,
        "cache_mb_per_node": metrics.cache_mb_per_node,
        "hit_ratio": metrics.hit_ratio,
        "hits": s.hits,
        "misses": s.misses,
        "accesses": s.accesses,
        "insertions": s.insertions,
        "failed_insertions": s.failed_insertions,
        "evictions": s.evictions,
        "evicted_mb": s.evicted_mb,
        "purged": s.purged,
        "prefetches_issued": s.prefetches_issued,
        "prefetches_used": s.prefetches_used,
        "prefetched_mb": s.prefetched_mb,
        "failure_lost_blocks": metrics.failure_lost_blocks,
        "num_stages_executed": metrics.num_stages_executed,
        # Per-node entries may be null: a node that served no cached
        # reads has no defined hit ratio (it is excluded from the mean
        # below rather than counted as 0.0).
        "per_node_hit_ratio": list(metrics.per_node_hit_ratio),
        "mean_node_hit_ratio": metrics.mean_node_hit_ratio,
        "control_plane": metrics.control_plane,
        # Multi-tenant identity (None / 0.0 for standalone runs).
        "app_id": metrics.app_id,
        "arrival_time": metrics.arrival_time,
        # Elastic membership (all zero / empty for static clusters).
        "nodes_joined": metrics.nodes_joined,
        "nodes_decommissioned": metrics.nodes_decommissioned,
        "rebalanced_blocks": metrics.rebalanced_blocks,
        "rebalanced_mb": metrics.rebalanced_mb,
        "decommission_dropped_blocks": metrics.decommission_dropped_blocks,
        "per_node_presence": list(metrics.per_node_presence),
        "control": {
            "sent": metrics.control.sent,
            "delivered": metrics.control.delivered,
            "dropped": metrics.control.dropped,
            "stale_orders": metrics.control.stale_orders,
            "orders_applied": metrics.control.orders_applied,
            "order_delay_total": metrics.control.order_delay_total,
        },
        "stages": [
            {
                "seq": r.seq,
                "stage_id": r.stage_id,
                "job_id": r.job_id,
                "start": r.start,
                "end": r.end,
                "num_tasks": r.num_tasks,
            }
            for r in metrics.stage_records
        ],
    }


def metrics_from_dict(data: dict) -> RunMetrics:
    """Rebuild a :class:`RunMetrics` from :func:`metrics_to_dict` output.

    Derived quantities (``accesses``, ``hit_ratio``, mean ratios) are
    recomputed from the stored counters, so a round-tripped object
    answers every query the live one did.
    """
    stats = BlockManagerStats(
        hits=data["hits"],
        misses=data["misses"],
        insertions=data["insertions"],
        failed_insertions=data["failed_insertions"],
        evictions=data["evictions"],
        purged=data["purged"],
        prefetches_issued=data["prefetches_issued"],
        prefetches_used=data["prefetches_used"],
        prefetched_mb=data["prefetched_mb"],
        evicted_mb=data["evicted_mb"],
    )
    control = ControlPlaneStats(**data.get("control", {}))
    return RunMetrics(
        scheme=data["scheme"],
        workload=data["workload"],
        jct=data["jct"],
        stats=stats,
        stage_records=[
            StageRecord(
                seq=r["seq"],
                stage_id=r["stage_id"],
                job_id=r["job_id"],
                start=r["start"],
                end=r["end"],
                num_tasks=r["num_tasks"],
            )
            for r in data["stages"]
        ],
        per_node_hit_ratio=list(data["per_node_hit_ratio"]),
        cache_mb_per_node=data["cache_mb_per_node"],
        failure_lost_blocks=data["failure_lost_blocks"],
        control_plane=data.get("control_plane", "instant"),
        control=control,
        app_id=data.get("app_id"),
        arrival_time=data.get("arrival_time", 0.0),
        nodes_joined=data.get("nodes_joined", 0),
        nodes_decommissioned=data.get("nodes_decommissioned", 0),
        rebalanced_blocks=data.get("rebalanced_blocks", 0),
        rebalanced_mb=data.get("rebalanced_mb", 0.0),
        decommission_dropped_blocks=data.get("decommission_dropped_blocks", 0),
        per_node_presence=list(data.get("per_node_presence", [])),
    )


def save_comparison_csv(metrics_list: Iterable[RunMetrics], path: Path | str) -> Path:
    """One row per run: the headline quantities across schemes."""
    path = Path(path)
    rows = [metrics_to_dict(m) for m in metrics_list]
    fields = [
        "workload", "scheme", "cache_mb_per_node", "jct", "hit_ratio",
        "hits", "misses", "evictions", "purged",
        "prefetches_issued", "prefetches_used",
    ]
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    return path
