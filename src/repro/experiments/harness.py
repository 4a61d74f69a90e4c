"""Shared experiment harness.

Every figure/table driver follows the same pattern: size the cluster
cache as a fraction of each workload's peak live cached footprint (the
paper's ``spark.executor.memory`` sweeps), run the workload under
several cache-management schemes, and normalize Job Completion Times
against the LRU baseline.  This module provides those building blocks
plus plain-text table rendering used by the benchmark scripts and
EXPERIMENTS.md.

Every sweep is a grid of cells run by ``repro.sweep.runner.run_cells``
(in-process at ``jobs=1``; bit-identical at any job count; resumable
with a ``store``).  :func:`sweep_cells` lists one workload's cells and
:func:`sweep_result` reads them back from an outcome, so a driver can
run several sweeps as one grid.  Cells are plain data: schemes are
``SchemeSpec`` values or names, and the cluster is a ``CLUSTERS`` preset.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.cluster.cluster import ClusterConfig
from repro.dag.analysis import peak_live_cached_mb
from repro.dag.dag_builder import ApplicationDAG, build_dag
from repro.simulator.config import CLUSTERS, MAIN_CLUSTER
from repro.simulator.metrics import RunMetrics
from repro.sweep.schemes import SchemeLike, SchemeSpec, resolve_scheme
# MIN_CACHE_MB is re-exported: callers read the sizing floor from here too.
from repro.sweep.spec import MIN_CACHE_MB, CellSpec, cache_mb_per_node  # noqa: F401
from repro.workloads.base import WorkloadParams
from repro.workloads.registry import get_workload

#: The scheme line-up most experiments compare.
STANDARD_SCHEMES: dict[str, SchemeLike] = {
    "LRU": SchemeSpec("LRU"),
    "LRC": SchemeSpec("LRC"),
    "MemTune": SchemeSpec("MemTune"),
    "MRD-evict": SchemeSpec("MRD", prefetch=False),
    "MRD-prefetch": SchemeSpec("MRD", evict=False),
    "MRD": SchemeSpec("MRD"),
    "Belady": SchemeSpec("Belady"),
}

#: Cache sizes swept per workload, as fractions of peak live cached MB.
DEFAULT_CACHE_FRACTIONS: tuple[float, ...] = (0.08, 0.15, 0.25, 0.35, 0.5, 0.7)


@dataclass(frozen=True)
class WorkloadRun:
    """One (workload, cache size, scheme) simulation result."""

    workload: str
    scheme: str
    cache_fraction: float
    cache_mb_per_node: float
    metrics: RunMetrics

    @property
    def jct(self) -> float:
        return self.metrics.jct

    @property
    def hit_ratio(self) -> float:
        return self.metrics.hit_ratio


@dataclass
class SweepResult:
    """All runs of one workload across cache fractions and schemes."""

    workload: str
    dag: ApplicationDAG
    peak_live_mb: float
    runs: list[WorkloadRun] = field(default_factory=list)

    def get(self, scheme: str, fraction: float) -> WorkloadRun:
        for run in self.runs:
            if run.scheme == scheme and run.cache_fraction == fraction:
                return run
        raise KeyError(f"no run for {scheme} @ {fraction}")

    def fractions(self) -> list[float]:
        return sorted({r.cache_fraction for r in self.runs})

    def schemes(self) -> list[str]:
        seen: dict[str, None] = {}
        for r in self.runs:
            seen.setdefault(r.scheme, None)
        return list(seen)

    def normalized_jct(self, scheme: str, fraction: float, baseline: str = "LRU") -> float:
        return self.get(scheme, fraction).jct / self.get(baseline, fraction).jct

    def best_fraction(self, scheme: str = "MRD", baseline: str = "LRU") -> float:
        """Cache fraction with the best scheme-vs-baseline ratio.

        Figure 4 reports "the best overall performance gain for each
        workload-cache combination" — this is that selection rule.
        """
        return min(
            self.fractions(),
            key=lambda f: self.normalized_jct(scheme, f, baseline),
        )


def cache_mb_for(dag: ApplicationDAG, fraction: float, cluster: ClusterConfig) -> float:
    """Per-node cache size for a given fraction of the peak live set."""
    return cache_mb_per_node(peak_live_cached_mb(dag), fraction, cluster.num_nodes)


def build_workload_dag(
    workload: str,
    scale: float = 1.0,
    iterations: int | None = None,
    partitions: int | None = None,
) -> ApplicationDAG:
    """Compile one benchmark workload into its application DAG."""
    params = WorkloadParams(
        scale=scale,
        iterations=iterations,
        partitions=partitions if partitions is not None else WorkloadParams().partitions,
    )
    return build_dag(get_workload(workload).build(params))


def sweep_cells(
    workload: str,
    schemes: dict[str, SchemeLike] | None = None,
    cluster: ClusterConfig = MAIN_CLUSTER,
    cache_fractions: Sequence[float] = DEFAULT_CACHE_FRACTIONS,
    scale: float = 1.0,
    iterations: int | None = None,
    partitions: int | None = None,
) -> list[CellSpec]:
    """One workload's grid: a cell per cache fraction × scheme label.

    A live scheme factory or a cluster that is not a ``CLUSTERS`` preset
    cannot be described to a worker, and raises ``ValueError``.
    """
    if CLUSTERS.get(cluster.name) != cluster:
        raise ValueError(
            f"cluster {cluster.name!r} is not a CLUSTERS preset; "
            f"sweeps take one of {sorted(CLUSTERS)}"
        )
    specs = {k: resolve_scheme(v) for k, v in (schemes or STANDARD_SCHEMES).items()}
    return [
        CellSpec(
            workload=workload,
            scheme=label,
            scheme_spec=spec,
            cluster=cluster.name,
            cache_fraction=fraction,
            scale=scale,
            iterations=iterations,
            partitions=partitions or WorkloadParams().partitions,
        )
        for fraction in cache_fractions
        for label, spec in specs.items()
    ]


def sweep_result(outcome, cells: Sequence[CellSpec]) -> SweepResult:
    """The :class:`SweepResult` of one :func:`sweep_cells` list, read from
    an outcome that may hold a larger grid; compiles the workload DAG."""
    first = cells[0]
    dag = build_workload_dag(first.workload, first.scale, first.iterations, first.partitions)
    result = SweepResult(
        workload=first.workload, dag=dag, peak_live_mb=peak_live_cached_mb(dag)
    )
    for cell in cells:
        metrics = outcome.metrics_for(cell)
        result.runs.append(WorkloadRun(
            workload=cell.workload, scheme=cell.scheme, cache_fraction=cell.cache_fraction or 0.0,
            cache_mb_per_node=metrics.cache_mb_per_node, metrics=metrics,
        ))
    return result


def sweep_workload(
    workload: str,
    schemes: dict[str, SchemeLike] | None = None,
    cluster: ClusterConfig = MAIN_CLUSTER,
    cache_fractions: Sequence[float] = DEFAULT_CACHE_FRACTIONS,
    jobs: int = 1,
    store=None,
    **build_kwargs,
) -> SweepResult:
    """Run one workload under every scheme at every cache fraction."""
    from repro.sweep.runner import run_cells

    cells = sweep_cells(workload, schemes, cluster, cache_fractions, **build_kwargs)
    return sweep_result(run_cells(cells, jobs=jobs, store=store).raise_on_error(), cells)


# ----------------------------------------------------------------------
# plain-text rendering
# ----------------------------------------------------------------------
def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render an aligned plain-text table (monospace, benchmark output)."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
