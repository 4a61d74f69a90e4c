"""Workload framework: parameterized synthetic SparkBench/HiBench programs.

Each workload module defines a :class:`WorkloadSpec` — metadata matching
the paper's Table 3 rows (category, input size, job type) plus a builder
function that writes the actual RDD program against
:class:`repro.dag.context.SparkContext`.  The builders are *shape
generators*: they reproduce the DAG structure (jobs, stages, cached-RDD
reference patterns, shuffle volumes, CPU intensity) that drives cache
behaviour, not the numerical algorithms themselves.

Common structural patterns shared by several workloads live here:

* :func:`pregel_superstep_loop` — GraphX-style iteration: long-lived
  cached edge RDD referenced every superstep, per-superstep vertex and
  message RDDs cached then unpersisted a few supersteps later.  This is
  the pattern behind PR, CC, SCC, LP, PO, SP and SVD++.
* :func:`gradient_descent_loop` — MLlib-style iteration: one cached
  training set referenced by every iteration job.  Behind LinR, LogR,
  SVM and (with extra sampling jobs) KM and DT.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.dag.context import SparkApplication, SparkContext
from repro.dag.rdd import RDD


@dataclass(frozen=True)
class WorkloadParams:
    """Knobs every workload builder accepts.

    ``scale`` multiplies the input size (and hence every derived RDD);
    ``iterations`` overrides the workload's default iteration count
    (Fig. 10's experiment triples it); ``partitions`` sets the
    parallelism of the main datasets.
    """

    scale: float = 1.0
    iterations: int | None = None
    partitions: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.partitions <= 0:
            raise ValueError("partitions must be positive")
        if self.iterations is not None and self.iterations <= 0:
            raise ValueError("iterations must be positive")


@dataclass(frozen=True)
class WorkloadSpec:
    """Metadata + builder for one benchmark workload."""

    name: str
    full_name: str
    suite: str  # "sparkbench" | "hibench"
    category: str  # paper Table 3 "Category"
    job_type: str  # "CPU intensive" | "I/O intensive" | "Mixed"
    input_mb: float
    default_iterations: int
    builder: Callable[[SparkContext, WorkloadParams], None]
    #: Does ``iterations`` actually change the DAG? (DT's does not,
    #: which the paper calls out in §5.9.)
    iterations_effective: bool = True

    def build(
        self, params: WorkloadParams | None = None, first_rdd_id: int = 0
    ) -> SparkApplication:
        """Record the workload program into a fresh application.

        ``first_rdd_id`` offsets the recording's rdd-id namespace (the
        multi-tenant layer gives each concurrent app a disjoint range).
        """
        params = params or WorkloadParams()
        ctx = SparkContext(self.name, first_rdd_id=first_rdd_id)
        self.builder(ctx, params)
        if not ctx.jobs:
            raise RuntimeError(f"workload {self.name} recorded no jobs")
        return SparkApplication(ctx=ctx, signature=self.name)


# ----------------------------------------------------------------------
# shared structural patterns
# ----------------------------------------------------------------------
def pregel_superstep_loop(
    ctx: SparkContext,
    edges: RDD,
    vertices: RDD,
    supersteps: int,
    msg_factor: float = 0.4,
    vertex_keep: int = 2,
    jobs_per_superstep: int = 1,
    stages_per_superstep: int = 1,
    cpu_per_mb: float = 0.002,
    delta_tracking: bool = True,
    unpersist_tail: bool = False,
    name: str = "pregel",
) -> RDD:
    """GraphX ``Pregel``-style iteration.

    Per superstep: messages are generated from the (cached) edges
    zipped with the current (cached) vertices, shuffled/reduced to the
    destination partitioning, joined back into a new cached vertex RDD,
    and an action materializes the result (GraphX runs ``count``-like
    jobs every superstep).  Vertex RDDs older than ``vertex_keep``
    supersteps are unpersisted, mirroring GraphX's aggressive
    uncaching.  Extra ``stages_per_superstep`` insert additional
    shuffle hops (SCC/LP-style heavy supersteps).  With
    ``delta_tracking`` the message stage also reads the *previous*
    vertex generation (GraphX's delta joins), raising the per-stage
    reference density like the paper's graph workloads.
    """
    if supersteps <= 0:
        raise ValueError("supersteps must be positive")

    def _factor(target_mb: float, *parents: RDD) -> float:
        """size_factor that makes the child partition ``target_mb`` big."""
        total = sum(p.partition_size_mb for p in parents)
        return target_mb / total if total > 0 else 0.0

    vertex_mb = vertices.partition_size_mb
    history: list[RDD] = [vertices]
    current = vertices
    previous = vertices
    for step in range(supersteps):
        # Messages are a fraction of the *vertex* data — shuffles stay
        # small relative to the cached reads (the paper's graph
        # workloads read 10-25x more stage input than they shuffle).
        msg_mb = msg_factor * vertex_mb
        msgs = edges.zip_partitions(
            current, size_factor=_factor(msg_mb, edges, current),
            cpu_per_mb=cpu_per_mb, name=f"{name}-msgs-{step}",
        )
        if delta_tracking and previous is not current:
            msgs = msgs.zip_partitions(
                previous, size_factor=_factor(msg_mb, msgs, previous),
                cpu_per_mb=cpu_per_mb / 2, name=f"{name}-delta-{step}",
            )
        reduced = msgs.reduce_by_key(
            size_factor=0.8, cpu_per_mb=cpu_per_mb, name=f"{name}-agg-{step}"
        )
        for extra in range(stages_per_superstep - 1):
            reduced = reduced.reduce_by_key(
                size_factor=1.0, cpu_per_mb=cpu_per_mb,
                name=f"{name}-agg-{step}.{extra + 1}",
            )
        applied = current.zip_partitions(
            reduced, size_factor=_factor(vertex_mb, current, reduced),
            cpu_per_mb=cpu_per_mb, name=f"{name}-apply-{step}",
        )
        # Materializing the new generation ships it to the edge
        # partitions (GraphX's replicated vertex view), touching the
        # cached edge RDD once more; the vertex size stays stable.
        current = applied.zip_partitions(
            edges, size_factor=_factor(vertex_mb, applied, edges),
            cpu_per_mb=cpu_per_mb / 2, name=f"{name}-vertices-{step + 1}",
        ).cache()
        for _ in range(jobs_per_superstep):
            current.count(name=f"{name}-step-{step}")
        previous = history[-1]
        history.append(current)
        if len(history) > vertex_keep:
            stale = history.pop(0)
            ctx.unpersist(stale)
    if unpersist_tail:
        # Phase handoff (e.g. SCC's fwd → bwd): only the final
        # generation survives; GraphX unpersists superseded views when
        # the next phase starts.
        for stale in history[:-1]:
            if stale.is_cached:
                ctx.unpersist(stale)
    return current


def gradient_descent_loop(
    ctx: SparkContext,
    data: RDD,
    iterations: int,
    stages_per_iteration: int = 1,
    cpu_per_mb: float = 0.02,
    gradient_factor: float = 0.01,
    name: str = "gd",
) -> None:
    """MLlib-style iterative optimization over one cached training set.

    Each iteration is one job: a map over the cached data computing
    per-partition gradients, optionally tree-aggregated through extra
    shuffle stages, finished by a driver-side collect.
    """
    if iterations <= 0:
        raise ValueError("iterations must be positive")
    for it in range(iterations):
        grads = data.map_partitions(
            size_factor=gradient_factor, cpu_per_mb=cpu_per_mb,
            name=f"{name}-grad-{it}",
        )
        agg = grads
        for lvl in range(stages_per_iteration - 1):
            agg = agg.reduce_by_key(
                size_factor=0.5, cpu_per_mb=cpu_per_mb / 4,
                name=f"{name}-tree-{it}.{lvl}",
            )
        agg.collect(name=f"{name}-iter-{it}")


def scaled(params: WorkloadParams, base_mb: float) -> float:
    """Input size after applying the params' scale factor."""
    return base_mb * params.scale


def iterations_or_default(params: WorkloadParams, default: int) -> int:
    return params.iterations if params.iterations is not None else default
