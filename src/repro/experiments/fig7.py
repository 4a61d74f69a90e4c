"""Figure 7 — effect of cache size on hit ratio and runtime (SVD++).

Sweeps the per-node cache across a wide range on the LRC cluster for
LRU, LRC and MRD, reporting hit ratio and runtime per size, plus the
cache-space-savings statistic the paper highlights: how much cache MRD
needs to match LRU's hit ratio at a target point (paper: 68 % hit ratio
reached with 0.33 GB instead of 0.88 GB — 63 % savings).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.harness import format_table, sweep_workload
from repro.simulator.config import LRC_CLUSTER
from repro.sweep.schemes import SchemeSpec

FIG7_FRACTIONS: tuple[float, ...] = (0.1, 0.2, 0.3, 0.45, 0.6, 0.8, 1.0)


@dataclass
class Fig7Result:
    workload: str
    fractions: list[float] = field(default_factory=list)
    cache_mb: list[float] = field(default_factory=list)
    jct: dict[str, list[float]] = field(default_factory=dict)
    hit: dict[str, list[float]] = field(default_factory=dict)
    #: Cache needed by each scheme to reach the target hit ratio (MB/node).
    target_hit: float = 0.0
    cache_to_reach_target: dict[str, float | None] = field(default_factory=dict)


def run(
    workload: str = "SVD++",
    fractions=FIG7_FRACTIONS,
    target_hit: float = 0.6,
    jobs: int = 1,
    store=None,
) -> Fig7Result:
    schemes = {
        "LRU": SchemeSpec("LRU"),
        "LRC": SchemeSpec("LRC"),
        "MRD": SchemeSpec("MRD"),
    }
    sweep = sweep_workload(
        workload, schemes=schemes, cluster=LRC_CLUSTER,
        cache_fractions=fractions, jobs=jobs, store=store,
    )
    result = Fig7Result(workload=workload, target_hit=target_hit)
    result.fractions = list(fractions)
    result.cache_mb = [sweep.get("LRU", f).cache_mb_per_node for f in fractions]
    for name in schemes:
        result.jct[name] = [sweep.get(name, f).jct for f in fractions]
        result.hit[name] = [sweep.get(name, f).hit_ratio for f in fractions]
        # Smallest cache size reaching the target hit ratio.
        reached = None
        for f, cache in zip(fractions, result.cache_mb):
            if sweep.get(name, f).hit_ratio >= target_hit:
                reached = cache
                break
        result.cache_to_reach_target[name] = reached
    return result


def cache_savings_pct(result: Fig7Result, better: str = "MRD", baseline: str = "LRU") -> float | None:
    """Cache-space savings of ``better`` vs ``baseline`` at the target hit."""
    b = result.cache_to_reach_target.get(better)
    base = result.cache_to_reach_target.get(baseline)
    if b is None or base is None or base == 0:
        return None
    return (1 - b / base) * 100


def render(result: Fig7Result) -> str:
    rows = []
    for i, f in enumerate(result.fractions):
        rows.append(
            (
                f, round(result.cache_mb[i], 1),
                result.jct["LRU"][i], result.jct["LRC"][i], result.jct["MRD"][i],
                f"{result.hit['LRU'][i] * 100:.0f}%",
                f"{result.hit['LRC'][i] * 100:.0f}%",
                f"{result.hit['MRD'][i] * 100:.0f}%",
            )
        )
    text = format_table(
        ["CacheFrac", "MB/node", "LRU-JCT", "LRC-JCT", "MRD-JCT",
         "LRU-hit", "LRC-hit", "MRD-hit"],
        rows,
        title=f"Figure 7: cache-size sweep for {result.workload} on the LRC cluster",
    )
    savings = cache_savings_pct(result)
    if savings is not None:
        text += (
            f"\ncache to reach {result.target_hit * 100:.0f}% hit ratio: "
            f"LRU {result.cache_to_reach_target['LRU']:.0f} MB vs "
            f"MRD {result.cache_to_reach_target['MRD']:.0f} MB "
            f"→ {savings:.0f}% savings (paper: 63%)"
        )
    return text
