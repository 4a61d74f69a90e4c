"""Figure 6 — comparison to the MemTune policy on the emulated System G.

Runs each workload on the 6-node 1-Gbps cluster (Table 4) under
MemTune-style caching and full MRD.  Paper: MRD better by up to 68 %
(PR), 33 % on average, with LogR showing a slight regression (low
reference distances give MRD nothing to exploit while it still pays
for aggressive prefetching).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.harness import (
    DEFAULT_CACHE_FRACTIONS,
    format_table,
    sweep_cells,
    sweep_result,
)
from repro.simulator.config import MEMTUNE_CLUSTER
from repro.sweep.runner import run_cells
from repro.sweep.schemes import SchemeSpec
from repro.sweep.spec import CellSpec

#: Workloads shown in the paper's Fig. 6 comparison.
FIG6_WORKLOADS: tuple[str, ...] = ("PR", "LogR", "KM", "CC", "SVD++", "PO", "LP", "TC")
_SCHEMES = {"LRU": SchemeSpec("LRU"), "MemTune": SchemeSpec("MemTune"), "MRD": SchemeSpec("MRD")}


@dataclass(frozen=True)
class Fig6Row:
    workload: str
    memtune_vs_lru: float
    mrd_vs_lru: float
    mrd_vs_memtune: float
    improvement_pct: float


def cells(workloads=FIG6_WORKLOADS, cache_fractions=DEFAULT_CACHE_FRACTIONS) -> list[CellSpec]:
    sweeps = (sweep_cells(w, _SCHEMES, MEMTUNE_CLUSTER, cache_fractions) for w in workloads)
    return [cell for sweep in sweeps for cell in sweep]


def reduce(
    outcome, workloads=FIG6_WORKLOADS, cache_fractions=DEFAULT_CACHE_FRACTIONS
) -> list[Fig6Row]:
    rows: list[Fig6Row] = []
    for name in workloads:
        sweep = sweep_result(outcome, sweep_cells(name, _SCHEMES, MEMTUNE_CLUSTER, cache_fractions))
        # Best absolute JCT per policy over the sweep ("best values from
        # their experiments and ours").
        best_mt = min(sweep.fractions(), key=lambda f: sweep.get("MemTune", f).jct)
        best_mrd = min(sweep.fractions(), key=lambda f: sweep.get("MRD", f).jct)
        mrd_vs_mt = sweep.get("MRD", best_mrd).jct / sweep.get("MemTune", best_mt).jct
        rows.append(
            Fig6Row(
                workload=name,
                memtune_vs_lru=sweep.normalized_jct("MemTune", best_mt),
                mrd_vs_lru=sweep.normalized_jct("MRD", best_mrd),
                mrd_vs_memtune=mrd_vs_mt,
                improvement_pct=(1 - mrd_vs_mt) * 100,
            )
        )
    return rows


def run(
    workloads: tuple[str, ...] = FIG6_WORKLOADS,
    cache_fractions=DEFAULT_CACHE_FRACTIONS,
    jobs: int = 1,
    store=None,
) -> list[Fig6Row]:
    grid = run_cells(cells(workloads, cache_fractions), jobs=jobs, store=store).raise_on_error()
    return reduce(grid, workloads, cache_fractions)


def render(rows: list[Fig6Row]) -> str:
    table = [
        (r.workload, r.memtune_vs_lru, r.mrd_vs_lru, r.mrd_vs_memtune, f"{r.improvement_pct:.0f}%")
        for r in rows
    ]
    avg = sum(r.improvement_pct for r in rows) / len(rows)
    table.append(("AVERAGE", "", "", "", f"{avg:.0f}% (paper: 33%)"))
    return format_table(
        ["Workload", "MemTune/LRU", "MRD/LRU", "MRD/MemTune", "MRD gain vs MemTune"],
        table,
        title="Figure 6: MRD vs MemTune on the MemTune cluster (paper: up to 68%, avg 33%)",
    )
