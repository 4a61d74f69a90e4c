"""Engine benchmark inputs: large synthetic applications for both cores.

Builds the deterministic synthetic applications (thousands of tasks,
16+ nodes) that the scheduler-core comparisons run
:class:`~repro.simulator.engine.SparkSimulator` on, under both the
event-queue and the reference scheduling core.

Two workload profiles are defined:

* ``sched`` — sparse caching, so per-task scheduling overhead dominates
  and the numbers isolate the scheduler itself (the quadratic
  ``min()``-scan vs the global event queue);
* ``cache`` — the default synthetic cache density under a deliberately
  undersized cache, so the run is cache-*bound*: misses, evictions and
  (under MRD) prefetches are all nonzero and the eviction/bookkeeping
  hot paths genuinely share the profile.

``benchmarks/test_engine_scale.py`` times both cores on each profile
and asserts the event core's speedup floors; the tier-1 equivalence
suite checks that both cores produce identical metrics.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.cluster.cluster import ClusterConfig
from repro.core.policy import MrdScheme
from repro.dag.dag_builder import ApplicationDAG, build_dag
from repro.policies.scheme import CacheScheme, LruScheme
from repro.simulator.metrics import RunMetrics
from repro.workloads.synthetic import SyntheticConfig, generate_application

#: Scheme factories the benchmark times: the cheapest baseline and
#: the paper's policy (the most state-carrying hot path).
BENCH_SCHEMES: dict[str, Callable[[], CacheScheme]] = {
    "LRU": LruScheme,
    "MRD": MrdScheme,
}


@dataclass(frozen=True)
class BenchConfig:
    """Shape of one benchmark run."""

    min_tasks: int = 5000
    num_nodes: int = 16
    slots_per_node: int = 4
    cache_mb_per_node: float = 200.0
    partitions: int = 320
    seed: int = 7
    repeats: int = 3

    def __post_init__(self) -> None:
        if self.min_tasks <= 0:
            raise ValueError("min_tasks must be positive")
        if self.num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if self.repeats <= 0:
            raise ValueError("repeats must be positive")

    def cluster(self, profile: str | None = None) -> ClusterConfig:
        """The benchmark cluster, with ``profile``'s cache override if any."""
        cluster = ClusterConfig(
            name=f"bench-{self.num_nodes}n",
            num_nodes=self.num_nodes,
            slots_per_node=self.slots_per_node,
            cache_mb_per_node=self.cache_mb_per_node,
        )
        override = _PROFILES[profile].cache_mb if profile is not None else None
        return cluster if override is None else cluster.with_cache(override)


@dataclass(frozen=True)
class BenchProfile:
    """One measured workload profile.

    ``overrides`` reshape the synthetic generator; ``cache_mb`` (when
    set) overrides the cluster's per-node cache so a profile can force
    cache pressure independently of the benchmark's default sizing.
    """

    overrides: dict
    cache_mb: float | None = None


#: Workload profiles measured by the benchmark.
_PROFILES: dict[str, BenchProfile] = {
    "sched": BenchProfile({"cache_probability": 0.05, "reuse_probability": 0.3}),
    # 40 MB/node makes the default cache density overflow: both schemes
    # miss and evict, and MRD additionally exercises its prefetch path.
    "cache": BenchProfile({}, cache_mb=40.0),
}


def bench_profile_names() -> tuple[str, ...]:
    return tuple(_PROFILES)


def build_bench_dag(config: BenchConfig, profile: str) -> ApplicationDAG:
    """Deterministic synthetic application with >= ``min_tasks`` tasks.

    Uses the smallest even job count from 4 up whose active-stage task
    count clears the floor, so the guarantee survives generator/DAG-
    builder changes.  The generator draws job by job, so an application
    with more jobs extends one with fewer and the task count never falls
    as jobs grow: a galloping search brackets the smallest count and a
    binary search pins it, compiling O(log n) DAGs instead of n/2.
    """
    overrides = _PROFILES[profile].overrides

    def build(step: int) -> ApplicationDAG:
        cfg = SyntheticConfig(
            num_jobs=4 + 2 * step, partitions=config.partitions, **overrides
        )
        return build_dag(generate_application(config.seed, cfg))

    # ``below`` is the largest step known to miss the floor (-1: none);
    # ``dag`` is the build at step ``above``, which clears it.
    below, above = -1, 0
    dag = build(above)
    while total_tasks(dag) < config.min_tasks:
        below, above = above, 2 * above + 1
        dag = build(above)
    while above - below > 1:
        mid = (below + above) // 2
        candidate = build(mid)
        if total_tasks(candidate) >= config.min_tasks:
            above, dag = mid, candidate
        else:
            below = mid
    return dag


def total_tasks(dag: ApplicationDAG) -> int:
    return sum(s.num_tasks for s in dag.active_stages)


def _metrics_fingerprint(m: RunMetrics) -> tuple:
    """Everything RunMetrics measures, as a comparable tuple."""
    return (
        m.jct,
        m.stats.hits, m.stats.misses, m.stats.insertions,
        m.stats.failed_insertions, m.stats.evictions, m.stats.purged,
        m.stats.prefetches_issued, m.stats.prefetches_used,
        m.stats.prefetched_mb, m.stats.evicted_mb,
        tuple(m.per_node_hit_ratio),
        tuple((r.seq, r.start, r.end) for r in m.stage_records),
    )
