"""Parallel sweep execution with per-cell failure isolation.

:func:`run_cells` takes a list of :class:`CellSpec` cells and executes
each one — in-process when ``jobs == 1``, across a ``multiprocessing``
pool otherwise.  Three properties the experiment drivers and the
``repro sweep`` CLI rely on:

* **Determinism** — a cell is a pure function of its spec: the worker
  builds the cluster and scheme from plain data, compiles (or reuses,
  see below) the workload DAG, and any RNG seed derives from the cell's
  fingerprint, never from the process or submission order.
  ``--jobs N`` is therefore bit-identical to ``--jobs 1`` (a tested
  invariant).
* **Failure isolation** — an exception inside a cell produces an error
  :class:`CellResult` (type, message, traceback) instead of killing the
  sweep; healthy cells complete and the summary reports the failures.
* **Resumability** — with a :class:`ResultStore`, each result persists
  atomically as it completes and later runs serve unchanged cells from
  disk, so an interrupted sweep recomputes only what it never finished
  and a completed sweep re-runs with zero recomputation.

Each cell with ``profile_store=True`` gets its *own* profile directory
(keyed by fingerprint) — cells never share one, because a stored MRD
profile from one configuration silently changes another configuration's
eviction behaviour (see ``tests/sweep/test_profile_isolation.py``).

Workload DAGs, by contrast, *are* shared: a simulation never mutates
its DAG (only the engine's derived ``engine_plans`` cache grows; see
``tests/sweep/test_dag_sharing.py``), so each process compiles a
workload once and reuses the DAG, its compiled task plans and its peak
live cached set for every later cell with the same
``(WorkloadSpec, WorkloadParams)`` key.  The memo lives for one
:func:`run_cells` call (one per pool worker process) and holds one
workload's DAGs at a time —
grids expand workload-major, so that is all a sweep needs.  A bare
:func:`run_cell` call builds fresh.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.control.plane import RpcConfig
from repro.core.app_profiler import ProfileStore
from repro.dag.dag_builder import ApplicationDAG
from repro.simulator.config import CLUSTERS
from repro.simulator.metrics import RunMetrics
from repro.simulator.reporting import metrics_to_dict
from repro.sweep.spec import CellSpec, cache_mb_per_node
from repro.sweep.store import STATUS_ERROR, STATUS_OK, CellResult, ResultStore
from repro.trace.recorder import TraceRecorder
from repro.workloads.base import WorkloadParams, WorkloadSpec

#: ``progress(done, total, result)`` — invoked after every cell.
ProgressFn = Callable[[int, int, CellResult], None]


class SweepError(RuntimeError):
    """Raised by :meth:`SweepOutcome.raise_on_error` when cells failed."""


def _build_cluster_config(cell: CellSpec):
    config = CLUSTERS[cell.cluster]
    if cell.cluster_overrides:
        config = replace(config, **dict(cell.cluster_overrides))
    return config


#: The compiled workloads a process is sweeping: each DAG with its peak
#: live cached set (MB), from which ``cache_fraction`` cells size caches.
DagMemo = dict[tuple[WorkloadSpec, WorkloadParams], tuple[ApplicationDAG, float]]


def _compiled_workload(
    cell: CellSpec, dags: DagMemo | None
) -> tuple[ApplicationDAG, float]:
    """The cell's workload DAG and its peak live cached MB: from ``dags``
    when it holds them, else built.

    The key is the :class:`WorkloadSpec` object, not its name, because
    ``register_workload(..., replace=True)`` can rebind a name.
    """
    from repro.dag.analysis import peak_live_cached_mb
    from repro.dag.dag_builder import build_dag
    from repro.workloads.registry import get_workload

    spec = get_workload(cell.workload)
    params = WorkloadParams(
        scale=cell.scale,
        iterations=cell.iterations,
        partitions=(
            cell.partitions if cell.partitions is not None
            else WorkloadParams().partitions
        ),
    )
    key = (spec, params)
    if dags is not None and key in dags:
        return dags[key]
    dag = build_dag(spec.build(params))
    compiled = (dag, peak_live_cached_mb(dag))
    if dags is not None:
        if any(held != spec for held, _ in dags):
            dags.clear()  # a new workload: drop the previous one's DAGs
        dags[key] = compiled
    return compiled


def execute_cell(
    cell: CellSpec,
    profile_store: ProfileStore | None = None,
    dags: DagMemo | None = None,
    recorder: TraceRecorder | None = None,
) -> RunMetrics:
    """Run one cell to completion (a pure function of the spec).

    The one place a single-application run becomes ``simulate(...)``
    arguments: sweeps, ``repro run``, ``repro trace record`` and the
    replay of a recorded trace all run cells through it.  ``recorder``
    receives the run's trace events.
    """
    from repro.simulator.engine import simulate

    dag, peak_mb = _compiled_workload(cell, dags)
    cluster = _build_cluster_config(cell)
    if cell.cache_mb is not None:
        cache_mb = cell.cache_mb
    else:
        assert cell.cache_fraction is not None
        cache_mb = cache_mb_per_node(peak_mb, cell.cache_fraction, cluster.num_nodes)
    scheme = cell.scheme_spec.build(profile_store=profile_store)
    kwargs: dict = {"scheduler": cell.scheduler, "recorder": recorder}
    if cell.placement != "stride":
        kwargs["placement"] = cell.placement
    if cell.churn_rate > 0:
        from repro.simulator.failures import build_churn_plan

        kwargs["failure_plan"] = build_churn_plan(
            len(dag.active_stages), cell.churn_rate, cell.derived_churn_seed()
        )
        kwargs["rebalance"] = cell.rebalance
    if cell.control_plane == "rpc":
        kwargs["control_plane"] = "rpc"
        kwargs["control_config"] = RpcConfig(
            latency_s=cell.control_latency,
            jitter_s=cell.control_jitter,
            loss_rate=cell.control_loss,
            seed=cell.derived_control_seed(),
        )
    metrics = simulate(dag, cluster.with_cache(cache_mb), scheme, **kwargs)
    # Cells are labeled by their grid key (e.g. "MRD-recurring"), which
    # may differ from the scheme's self-reported name.
    metrics.scheme = cell.scheme
    return metrics


def run_cell(
    cell: CellSpec, profile_path: str | None = None, dags: DagMemo | None = None
) -> CellResult:
    """Execute one cell, mapping any exception to an error result.

    ``dags`` is a sweep's DAG memo (see the module docstring); without
    one the cell compiles its workload DAG fresh.
    """
    fingerprint = cell.fingerprint()
    start = time.perf_counter()
    try:
        store = ProfileStore(path=Path(profile_path)) if profile_path else None
        metrics = execute_cell(cell, store, dags)
    except Exception as exc:  # noqa: BLE001 - isolation is the point
        return CellResult(
            fingerprint=fingerprint,
            spec=cell.to_dict(),
            status=STATUS_ERROR,
            error={
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
            },
            elapsed_s=time.perf_counter() - start,
        )
    return CellResult(
        fingerprint=fingerprint,
        spec=cell.to_dict(),
        status=STATUS_OK,
        metrics=metrics_to_dict(metrics),
        elapsed_s=time.perf_counter() - start,
    )


#: The DAG memo of a pool worker process (set by :func:`_init_pool_worker`).
_pool_dags: DagMemo | None = None


def _init_pool_worker() -> None:
    global _pool_dags
    _pool_dags = {}


def _pool_entry(task: tuple[CellSpec, str | None]) -> CellResult:
    cell, profile_path = task
    return run_cell(cell, profile_path, _pool_dags)


@dataclass
class SweepOutcome:
    """Everything one :func:`run_cells` invocation produced."""

    cells: list[CellSpec]
    #: One result per cell, in cell order (duplicates share results).
    results: list[CellResult]
    computed: int = 0
    cached: int = 0
    errors: int = 0
    elapsed_s: float = 0.0
    _by_fingerprint: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        for result in self.results:
            self._by_fingerprint.setdefault(result.fingerprint, result)

    # ------------------------------------------------------------------
    def result_for(self, cell: CellSpec) -> CellResult:
        return self._by_fingerprint[cell.fingerprint()]

    def metrics_for(self, cell: CellSpec) -> RunMetrics:
        return self.result_for(cell).run_metrics()

    def error_results(self) -> list[CellResult]:
        return [r for r in self.results if not r.ok]

    def raise_on_error(self) -> SweepOutcome:
        """Fail loudly when any cell errored (drivers that need all cells);
        returns the outcome, so a run and its check chain."""
        failed = self.error_results()
        if failed:
            lines = [
                f"  {CellSpec.from_dict(r.spec).label()}: {r.describe_error()}"
                for r in failed
            ]
            raise SweepError(
                f"{len(failed)}/{len(self.results)} sweep cell(s) failed:\n"
                + "\n".join(lines)
            )
        return self

    def stats_line(self) -> str:
        """`16 cells: 12 computed, 4 cached, 0 errors in 3.2s`.

        Counts distinct cells, as the progress total does; a grid with
        duplicate cells appends its requested count: `(20 requested)`.
        """
        distinct = len(self._by_fingerprint)
        requested = len(self.results)
        return (
            f"{distinct} cells: {self.computed} computed, "
            f"{self.cached} cached, {self.errors} errors "
            f"in {self.elapsed_s:.1f}s"
            + (f" ({requested} requested)" if requested != distinct else "")
        )


def scheduler_mismatches(outcome: SweepOutcome) -> list[str]:
    """Cross-scheduler equivalence check over an outcome.

    Groups cells that differ only in their ``scheduler`` field and
    compares the stored metrics payloads — the event core and the
    reference core must be indistinguishable.  Returns one description
    per divergent group (empty list = all equivalent).
    """
    groups: dict[str, dict[str, dict | None]] = {}
    labels: dict[str, str] = {}
    for cell, result in zip(outcome.cells, outcome.results, strict=True):
        spec = cell.to_dict()
        spec.pop("scheduler")
        key = repr(sorted(spec.items()))
        labels.setdefault(key, cell.label())
        groups.setdefault(key, {})[cell.scheduler] = result.metrics
    mismatches = []
    for key, by_scheduler in groups.items():
        if len(by_scheduler) < 2:
            continue
        payloads = list(by_scheduler.values())
        if any(p != payloads[0] for p in payloads[1:]):
            mismatches.append(
                f"{labels[key]}: schedulers {sorted(by_scheduler)} disagree"
            )
    return mismatches


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def run_cells(
    cells: Sequence[CellSpec],
    jobs: int = 1,
    store: ResultStore | str | Path | None = None,
    resume: bool = True,
    progress: ProgressFn | None = None,
) -> SweepOutcome:
    """Run every cell; return results in cell order.

    ``jobs`` bounds worker processes (1 = in-process, no pool).  With a
    ``store``, completed cells persist immediately and — when ``resume``
    is true — previously stored *successful* results are served without
    recomputation; stored error results always retry (their stale
    profile directory is purged first, so the retry starts cold).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if store is not None and not isinstance(store, ResultStore):
        store = ResultStore(store)
    cells = list(cells)
    start = time.perf_counter()

    results: dict[str, CellResult] = {}
    pending: list[tuple[CellSpec, str | None]] = []
    seen_pending: set[str] = set()
    order: list[str] = []
    cached = 0
    for cell in cells:
        fingerprint = cell.fingerprint()
        order.append(fingerprint)
        if fingerprint in results or fingerprint in seen_pending:
            continue  # duplicate cell: compute once, share the result
        stored = store.get(fingerprint) if (store is not None and resume) else None
        if stored is not None and stored.ok:
            stored.cached = True
            results[fingerprint] = stored
            cached += 1
            continue
        profile_path: str | None = None
        if cell.profile_store:
            if store is None:
                raise ValueError(
                    f"cell {cell.label()} wants a file-backed profile store, "
                    "but the sweep has no result store directory"
                )
            # The cell is about to recompute: purge any profile a prior
            # run of this fingerprint left behind (cross-run MRD profile
            # leakage — the result must be a pure function of the spec).
            store.reset_profiles(fingerprint)
            profile_path = str(store.profile_path(fingerprint))
        seen_pending.add(fingerprint)
        pending.append((cell, profile_path))

    total = len(results) + len(pending)
    done = len(results)
    if progress is not None:
        for i, result in enumerate(results.values(), start=1):
            progress(i, total, result)

    def _record(result: CellResult) -> None:
        nonlocal done
        results[result.fingerprint] = result
        if store is not None:
            store.put(result)
        done += 1
        if progress is not None:
            progress(done, total, result)

    if jobs == 1:
        dags: DagMemo = {}
        for cell, profile_path in pending:
            _record(run_cell(cell, profile_path, dags))
    elif pending:
        ctx = _pool_context()
        pool = ctx.Pool(
            processes=min(jobs, len(pending)), initializer=_init_pool_worker
        )
        try:
            for result in pool.imap_unordered(_pool_entry, pending, chunksize=1):
                _record(result)
            pool.close()
        except BaseException:
            pool.terminate()
            raise
        finally:
            pool.join()

    ordered = [results[fp] for fp in order]
    return SweepOutcome(
        cells=cells,
        results=ordered,
        computed=len(pending),
        cached=cached,
        errors=sum(1 for r in results.values() if not r.ok),
        elapsed_s=time.perf_counter() - start,
    )
