"""Shared experiment harness.

Every figure/table driver follows the same pattern: build a workload
DAG once, size the cluster cache as a fraction of the workload's peak
live cached footprint (the paper's ``spark.executor.memory`` sweeps),
run it under several cache-management schemes, and normalize Job
Completion Times against the LRU baseline.  This module provides those
building blocks plus plain-text table rendering used by the benchmark
scripts and EXPERIMENTS.md.

:func:`sweep_workload` executes its grid through the parallel sweep
runner (``repro.sweep``) whenever it can: pass ``jobs=N`` to fan cells
out across worker processes and ``store=`` to make the sweep resumable
and cached.  Results are bit-identical at any job count.  Scheme dicts
may map labels to :class:`~repro.sweep.schemes.SchemeSpec` values (the
standard line-ups do), registry names, or — for ad-hoc experiments —
arbitrary zero-argument factories, which still run on the in-process
serial path since they cannot cross a process boundary.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.cluster.cluster import ClusterConfig
from repro.dag.analysis import peak_live_cached_mb
from repro.dag.dag_builder import ApplicationDAG, build_dag
from repro.policies.scheme import CacheScheme
from repro.simulator.config import CLUSTERS, MAIN_CLUSTER
from repro.simulator.engine import simulate
from repro.simulator.metrics import RunMetrics
from repro.sweep.schemes import SchemeSpec, maybe_resolve_scheme
from repro.workloads.base import WorkloadParams
from repro.workloads.registry import get_workload

SchemeFactory = Callable[[], CacheScheme]
SchemeLike = SchemeFactory | SchemeSpec | str

#: The scheme line-up most experiments compare (fresh instance per run;
#: every entry is a picklable SchemeSpec, so sweeps parallelize).
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

#: Minimum per-node cache so a single block always fits.
MIN_CACHE_MB = 8.0


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
    peak = peak_live_cached_mb(dag)
    return max(peak * fraction / cluster.num_nodes, MIN_CACHE_MB)


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


def _preset_name(cluster: ClusterConfig) -> str | None:
    """Registry name of ``cluster`` if it *is* a preset, else ``None``."""
    preset = CLUSTERS.get(cluster.name)
    return cluster.name if preset == cluster else None


def sweep_workload(
    workload: str,
    schemes: dict[str, SchemeLike] | None = None,
    cluster: ClusterConfig = MAIN_CLUSTER,
    cache_fractions: Sequence[float] = DEFAULT_CACHE_FRACTIONS,
    dag: ApplicationDAG | None = None,
    jobs: int = 1,
    store=None,
    resume: bool = True,
    **build_kwargs,
) -> SweepResult:
    """Run one workload under every scheme at every cache fraction.

    With ``jobs > 1`` or a result ``store``, the grid executes through
    the parallel sweep runner (one process-shippable cell per
    scheme × fraction, served from the store when unchanged); results
    are bit-identical to the serial path.  The serial in-process path
    is used when any scheme is a live factory, when a prebuilt ``dag``
    is supplied, or when ``cluster`` is not a named preset — those
    cannot be described to a worker process.
    """
    schemes = schemes or STANDARD_SCHEMES
    resolved = {name: maybe_resolve_scheme(value) for name, value in schemes.items()}
    preset = _preset_name(cluster)
    use_runner = (
        (jobs > 1 or store is not None)
        and dag is None
        and preset is not None
        and all(spec is not None for spec in resolved.values())
    )
    if use_runner:
        from repro.sweep.runner import run_cells
        from repro.sweep.spec import CellSpec

        params = WorkloadParams(
            scale=build_kwargs.get("scale", 1.0),
            iterations=build_kwargs.get("iterations"),
            partitions=build_kwargs.get("partitions") or WorkloadParams().partitions,
        )
        cells = [
            CellSpec(
                workload=workload,
                scheme=name,
                scheme_spec=spec,
                cluster=preset,
                cache_fraction=fraction,
                scale=params.scale,
                iterations=params.iterations,
                partitions=params.partitions,
            )
            for fraction in cache_fractions
            for name, spec in resolved.items()
        ]
        outcome = run_cells(cells, jobs=jobs, store=store, resume=resume)
        outcome.raise_on_error()
        dag = build_workload_dag(workload, **build_kwargs)
        result = SweepResult(
            workload=workload, dag=dag, peak_live_mb=peak_live_cached_mb(dag)
        )
        for cell in cells:
            metrics = outcome.metrics_for(cell)
            result.runs.append(
                WorkloadRun(
                    workload=workload,
                    scheme=cell.scheme,
                    cache_fraction=cell.cache_fraction or 0.0,
                    cache_mb_per_node=metrics.cache_mb_per_node,
                    metrics=metrics,
                )
            )
        return result

    dag = dag if dag is not None else build_workload_dag(workload, **build_kwargs)
    result = SweepResult(
        workload=workload, dag=dag, peak_live_mb=peak_live_cached_mb(dag)
    )
    for fraction in cache_fractions:
        cache_mb = cache_mb_for(dag, fraction, cluster)
        config = cluster.with_cache(cache_mb)
        for name, value in schemes.items():
            spec = resolved[name]
            scheme = spec.build() if spec is not None else value()  # type: ignore[operator]
            metrics = simulate(dag, config, scheme)
            metrics.scheme = name
            result.runs.append(
                WorkloadRun(
                    workload=workload,
                    scheme=name,
                    cache_fraction=fraction,
                    cache_mb_per_node=cache_mb,
                    metrics=metrics,
                )
            )
    return result


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
