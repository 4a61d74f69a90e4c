"""Figure 4 — overall performance of MRD vs LRU on the main cluster.

For each of the fourteen SparkBench workloads: sweep cache sizes, pick
the best workload-cache combination (as the paper does), and report the
normalized JCT of MRD eviction-only, MRD prefetch-only and full MRD
against the LRU baseline, plus the LRU and full-MRD cache hit ratios.

Paper headline numbers this reproduces in shape:
  eviction-only avg 62 % of LRU, prefetch-only avg 67 %, full avg 53 %,
  best case SCC ≈ 20 %, worst case DT ≈ 88-100 %.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.harness import (
    DEFAULT_CACHE_FRACTIONS,
    SweepResult,
    format_table,
    sweep_cells,
    sweep_result,
)
from repro.simulator.config import MAIN_CLUSTER
from repro.sweep.runner import run_cells
from repro.sweep.schemes import SchemeSpec
from repro.sweep.spec import CellSpec
from repro.workloads.registry import SPARKBENCH_WORKLOADS

FIG4_WORKLOADS: tuple[str, ...] = tuple(s.name for s in SPARKBENCH_WORKLOADS)

FIG4_SCHEMES = {
    "LRU": SchemeSpec("LRU"),
    "MRD-evict": SchemeSpec("MRD", prefetch=False),
    "MRD-prefetch": SchemeSpec("MRD", evict=False),
    "MRD": SchemeSpec("MRD"),
}

#: Paper's approximate normalized-JCT readings for full MRD (Fig. 4).
PAPER_FULL_MRD: dict[str, float] = {
    "KM": 0.45, "LinR": 0.80, "LogR": 0.72, "SVM": 0.80, "DT": 0.88,
    "MF": 0.60, "PR": 0.35, "TC": 0.75, "SP": 0.70, "LP": 0.30,
    "SVD++": 0.40, "CC": 0.38, "SCC": 0.20, "PO": 0.35,
}


@dataclass(frozen=True)
class Fig4Row:
    workload: str
    best_fraction: float
    evict_only: float
    prefetch_only: float
    full: float
    lru_hit: float
    mrd_hit: float
    paper_full: float | None


def _sweep(name: str, cache_fractions, scale) -> list[CellSpec]:
    return sweep_cells(name, FIG4_SCHEMES, MAIN_CLUSTER, cache_fractions, scale=scale)


def cells(
    workloads=FIG4_WORKLOADS, cache_fractions=DEFAULT_CACHE_FRACTIONS, scale=1.0
) -> list[CellSpec]:
    return [cell for w in workloads for cell in _sweep(w, cache_fractions, scale)]


def reduce(
    outcome, workloads=FIG4_WORKLOADS, cache_fractions=DEFAULT_CACHE_FRACTIONS, scale=1.0
) -> list[Fig4Row]:
    return [summarize(sweep_result(outcome, _sweep(w, cache_fractions, scale))) for w in workloads]


def run(
    workloads: tuple[str, ...] = FIG4_WORKLOADS,
    cache_fractions=DEFAULT_CACHE_FRACTIONS,
    scale: float = 1.0,
    jobs: int = 1,
    store=None,
) -> list[Fig4Row]:
    grid = run_cells(cells(workloads, cache_fractions, scale), jobs=jobs, store=store)
    return reduce(grid.raise_on_error(), workloads, cache_fractions, scale)


def summarize(sweep: SweepResult) -> Fig4Row:
    best = sweep.best_fraction("MRD", "LRU")
    return Fig4Row(
        workload=sweep.workload,
        best_fraction=best,
        evict_only=sweep.normalized_jct("MRD-evict", best),
        prefetch_only=sweep.normalized_jct("MRD-prefetch", best),
        full=sweep.normalized_jct("MRD", best),
        lru_hit=sweep.get("LRU", best).hit_ratio,
        mrd_hit=sweep.get("MRD", best).hit_ratio,
        paper_full=PAPER_FULL_MRD.get(sweep.workload),
    )


def averages(rows: list[Fig4Row]) -> dict[str, float]:
    n = len(rows)
    return {
        "evict_only": sum(r.evict_only for r in rows) / n,
        "prefetch_only": sum(r.prefetch_only for r in rows) / n,
        "full": sum(r.full for r in rows) / n,
        "lru_hit": sum(r.lru_hit for r in rows) / n,
        "mrd_hit": sum(r.mrd_hit for r in rows) / n,
    }


def render(rows: list[Fig4Row]) -> str:
    table = [
        (
            r.workload, r.best_fraction,
            r.evict_only, r.prefetch_only, r.full,
            f"{r.lru_hit * 100:.0f}%", f"{r.mrd_hit * 100:.0f}%",
            r.paper_full if r.paper_full is not None else "-",
        )
        for r in rows
    ]
    avg = averages(rows)
    table.append(
        ("AVERAGE", "", avg["evict_only"], avg["prefetch_only"], avg["full"],
         f"{avg['lru_hit'] * 100:.0f}%", f"{avg['mrd_hit'] * 100:.0f}%", "0.53")
    )
    return format_table(
        ["Workload", "BestCacheFrac", "Evict-only", "Prefetch-only", "Full-MRD",
         "LRU-hit", "MRD-hit", "paper-Full"],
        table,
        title="Figure 4: normalized JCT vs LRU (lower is better) + hit ratios",
    )
