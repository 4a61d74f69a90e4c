"""The paper's headline claims, each checked against a band.

One row per claim of the paper's evaluation (§5, Figs. 4–12): the
paper's value, a function that reads the measured value from the
figures' ``reduce()`` rows, and the band that value must stay in.
``repro report`` renders this table as its headline section and exits
non-zero when a claim leaves its band; EXPERIMENTS.md carries the same
table.

The rows a measure reads are one dict keyed by driver name: ``"fig4"``
to ``"fig10"`` hold each driver's ``reduce(outcome)``, ``"fig11_12"``
holds ``fig11_12.run(fig4_rows)``.  A measure whose workload is missing
from its rows reads NaN, which no band holds.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from typing import Any, NamedTuple

from repro.experiments.fig4 import PAPER_FULL_MRD
from repro.experiments.fig7 import cache_savings_pct

#: The reduced rows of every figure, keyed by driver name.
Reduced = dict[str, Any]

#: Fig. 4's I/O-intensive and CPU-intensive workloads (paper §5.10).
IO_WORKLOADS = ("PR", "LP", "SVD++", "CC", "PO")
CPU_WORKLOADS = ("LinR", "LogR", "DT")


class Claim(NamedTuple):
    label: str
    paper: str
    measure: Callable[[Reduced], float]
    lo: float
    hi: float
    fmt: str = "{:.2f}"

    def holds(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def band(self) -> str:
        return f"{self.fmt.format(self.lo)} – {self.fmt.format(self.hi)}"


def _mean(values: Iterable[float]) -> float:
    items = list(values)
    return sum(items) / len(items) if items else math.nan


def _of(rows, workload: str, attr: str) -> float:
    """``attr`` of ``workload``'s row, NaN when the row is missing."""
    return next((getattr(r, attr) for r in rows if r.workload == workload), math.nan)


def _ratio(rows, workload: str, num: str, den: str) -> float:
    return _of(rows, workload, num) / _of(rows, workload, den)


def _drop(rows, workload: str, before: str, after: str) -> float:
    """Fall from ``before`` to ``after`` on ``workload``, in percentage points."""
    return 100 * (_of(rows, workload, before) - _of(rows, workload, after))


def _io_cpu_gap(full: dict[str, float]) -> float:
    """Mean normalized JCT of the CPU-intensive minus the I/O-intensive set."""
    cpu = _mean(full.get(w, math.nan) for w in CPU_WORKLOADS)
    return cpu - _mean(full.get(w, math.nan) for w in IO_WORKLOADS)


def _eviction_share(rows) -> float:
    """Share of full MRD's average JCT gain that eviction alone gives."""
    return (1 - _mean(r.evict_only for r in rows)) / (1 - _mean(r.full for r in rows))


def _fig7_savings(result) -> float:
    savings = cache_savings_pct(result)
    return math.nan if savings is None else savings


def _fig7_worst_mrd_vs_lru(result) -> float:
    return max(
        (mrd / lru for mrd, lru in zip(result.jct["MRD"], result.jct["LRU"])), default=math.nan
    )


def _fig10_iterable(rows) -> list:
    return [r for r in rows if r.workload != "DT"]


def _fig10_min_growth(rows) -> float:
    """Smallest 3×/1× growth of jobs or stages over the iterable workloads."""
    growth = [(r.jobs_3x / r.jobs_1x, r.stages_3x / r.stages_1x) for r in _fig10_iterable(rows)]
    return min((g for pair in growth for g in pair), default=math.nan)


def _fig10_dt_changed(rows) -> float:
    """Jobs plus stages that tripling the iterations adds to or drops from DT."""
    return abs(_of(rows, "DT", "jobs_3x") - _of(rows, "DT", "jobs_1x")) + abs(
        _of(rows, "DT", "stages_3x") - _of(rows, "DT", "stages_1x")
    )


def _paper_extreme(pick) -> str:
    workload = pick(PAPER_FULL_MRD, key=PAPER_FULL_MRD.get)
    return f"{workload} → {PAPER_FULL_MRD[workload]:.2f}"


PCT = "{:.0f} %"
PTS = "{:.0f} pts"

CLAIMS: list[Claim] = [
    Claim("Full MRD avg JCT vs LRU (Fig. 4)", "0.53",
          lambda r: _mean(x.full for x in r["fig4"]), 0.55, 0.64),
    Claim("Eviction-only avg JCT vs LRU (Fig. 4)", "0.62",
          lambda r: _mean(x.evict_only for x in r["fig4"]), 0.65, 0.78),
    Claim("Prefetch-only avg JCT vs LRU (Fig. 4)", "0.67",
          lambda r: _mean(x.prefetch_only for x in r["fig4"]), 0.80, 0.92),
    Claim("Eviction's share of full MRD's gain (Fig. 4)", "81 %",
          lambda r: 100 * _eviction_share(r["fig4"]), 60, 95, PCT),
    Claim("Best workload's full-MRD JCT (Fig. 4)", _paper_extreme(min),
          lambda r: min((x.full for x in r["fig4"]), default=math.nan), 0.30, 0.45),
    Claim("Worst workload's full-MRD JCT (Fig. 4)", _paper_extreme(max),
          lambda r: max((x.full for x in r["fig4"]), default=math.nan), 0.70, 0.90),
    Claim("CPU- minus I/O-intensive avg JCT (Fig. 4)", f"{_io_cpu_gap(PAPER_FULL_MRD):.2f}",
          lambda r: _io_cpu_gap({x.workload: x.full for x in r["fig4"]}), 0.20, 0.45),
    Claim("Smallest hit-ratio rise, LRU → MRD (Fig. 4)", "rises for all",
          lambda r: 100 * min((x.mrd_hit - x.lru_hit for x in r["fig4"]), default=math.nan),
          20, 100, PTS),
    Claim("MRD gain vs LRC, avg (Fig. 5)", "30 %",
          lambda r: _mean(x.improvement_pct for x in r["fig5"]), 12, 30, PCT),
    Claim("MRD gain vs LRC, best (Fig. 5)", "45 % (CC)",
          lambda r: max((x.improvement_pct for x in r["fig5"]), default=math.nan), 30, 50, PCT),
    Claim("MRD ÷ LRC JCT, worst workload (Fig. 5)", "–",
          lambda r: max((x.mrd_vs_lrc for x in r["fig5"]), default=math.nan), 0.90, 1.00),
    Claim("MRD gain vs MemTune, avg (Fig. 6)", "33 %",
          lambda r: _mean(x.improvement_pct for x in r["fig6"]), 30, 55, PCT),
    Claim("MRD gain vs MemTune on PR (Fig. 6)", "68 %",
          lambda r: _of(r["fig6"], "PR", "improvement_pct"), 55, 80, PCT),
    Claim("MRD ÷ MemTune JCT on LogR (Fig. 6)", "> 1 (slight loss)",
          lambda r: _of(r["fig6"], "LogR", "mrd_vs_memtune"), 0.85, 1.10),
    Claim("Cache saved by MRD at LRU's hit ratio (Fig. 7)", "63 %",
          lambda r: _fig7_savings(r["fig7"]), 30, 60, PCT),
    Claim("MRD ÷ LRU JCT, worst cache size (Fig. 7)", "≤ 1",
          lambda r: _fig7_worst_mrd_vs_lru(r["fig7"]), 0.85, 1.00),
    Claim("MRD hit-ratio rise, smallest → largest cache (Fig. 7)", "rises",
          lambda r: 100 * (r["fig7"].hit["MRD"][-1] - r["fig7"].hit["MRD"][0]), 50, 100, PTS),
    Claim("MRD JCT, smallest ÷ largest cache (Fig. 7)", "> 1",
          lambda r: r["fig7"].jct["MRD"][0] / r["fig7"].jct["MRD"][-1], 1.5, 3.0),
    Claim("Job ÷ stage metric JCT on LP (Fig. 8)", "> 1",
          lambda r: _ratio(r["fig8"], "LP", "job_metric_jct", "stage_metric_jct"), 1.06, 1.25),
    Claim("Job ÷ stage metric JCT on KM (Fig. 8)", "≈ 1",
          lambda r: _ratio(r["fig8"], "KM", "job_metric_jct", "stage_metric_jct"), 0.99, 1.01),
    Claim("Active stages per job, LP ÷ KM (Fig. 8)", "> 1",
          lambda r: _of(r["fig8"], "LP", "active_stages_per_job")
          / _of(r["fig8"], "KM", "active_stages_per_job"), 2.5, 5.0),
    Claim("Ad-hoc ÷ recurring JCT on KM (Fig. 9)", "> 1",
          lambda r: _ratio(r["fig9"], "KM", "adhoc_jct", "recurring_jct"), 1.30, 1.90),
    Claim("Ad-hoc ÷ recurring JCT on TC (Fig. 9)", "≈ 1",
          lambda r: _ratio(r["fig9"], "TC", "adhoc_jct", "recurring_jct"), 0.98, 1.10),
    Claim("KM hit-ratio drop, recurring → ad-hoc (Fig. 9)", "> 0",
          lambda r: _drop(r["fig9"], "KM", "recurring_hit", "adhoc_hit"), 10, 50, PTS),
    Claim("Avg JCT change at 3× iterations (Fig. 10)", "-0.08",
          lambda r: _mean(x.mrd_jct_3x - x.mrd_jct_1x for x in _fig10_iterable(r["fig10"])),
          -0.10, 0.01),
    Claim("Smallest job/stage growth at 3× iterations (Fig. 10)", "> 1",
          lambda r: _fig10_min_growth(r["fig10"]), 2.0, 3.5),
    Claim("DT jobs + stages changed at 3× iterations (Fig. 10)", "0",
          lambda r: _fig10_dt_changed(r["fig10"]), 0, 0, "{:.0f}"),
    Claim("R² of gain vs stage distance (Fig. 11)", "0.46",
          lambda r: r["fig11_12"].r2_stage_distance, 0.05, 0.30),
    Claim("Slope of gain vs stage distance (Fig. 11)", "> 0",
          lambda r: r["fig11_12"].slope_stage_distance, 0.30, 1.50),
    Claim("R² of gain vs refs per stage (Fig. 12)", "0.71",
          lambda r: r["fig11_12"].r2_refs_per_stage, 0.60, 0.90),
    Claim("Slope of gain vs refs per stage (Fig. 12)", "> 0",
          lambda r: r["fig11_12"].slope_refs_per_stage, 15, 45, "{:.1f}"),
    Claim("Fig. 12 R² minus Fig. 11 R²", "0.25",
          lambda r: r["fig11_12"].r2_refs_per_stage - r["fig11_12"].r2_stage_distance,
          0.30, 0.90),
]


def evaluate(reduced: Reduced) -> list[tuple[Claim, float]]:
    """Each claim with its measured value."""
    return [(claim, claim.measure(reduced)) for claim in CLAIMS]


def render(results: list[tuple[Claim, float]]) -> str:
    """The claims as a markdown table (the report's headline section)."""
    lines = ["| Paper claim | Paper | Measured | Band | Status |", "|---|---|---|---|---|"]
    for claim, value in results:
        status = "✓" if claim.holds(value) else "✗ out of band"
        lines.append(
            f"| {claim.label} | {claim.paper} | {claim.fmt.format(value)} "
            f"| {claim.band()} | {status} |"
        )
    return "\n".join(lines)


def failures(results: list[tuple[Claim, float]]) -> list[str]:
    """One line per claim outside its band, naming the row."""
    return [
        f"{claim.label}: measured {claim.fmt.format(value)}, band {claim.band()}"
        for claim, value in results
        if not claim.holds(value)
    ]
