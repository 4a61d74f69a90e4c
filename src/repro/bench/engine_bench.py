"""Engine micro-benchmark: event-queue vs reference scheduling core.

Times :class:`~repro.simulator.engine.SparkSimulator` end to end on
large synthetic applications (thousands of tasks, 16+ nodes) under both
scheduling cores and asserts their :class:`RunMetrics` are identical,
so every reported speedup is a like-for-like comparison of the same
simulated execution.

Two workload profiles are measured:

* ``sched`` — sparse caching, so per-task scheduling overhead dominates
  and the numbers isolate the scheduler itself (the quadratic
  ``min()``-scan vs the global event queue);
* ``cache`` — the default synthetic cache density under a deliberately
  undersized cache, so the run is cache-*bound*: misses, evictions and
  (under MRD) prefetches are all nonzero and the eviction/bookkeeping
  hot paths genuinely share the profile.

The payload is written to ``BENCH_engine.json`` (repo root) as the
perf trajectory's data points; CI re-runs a reduced size and fails on
a >2x regression against the committed baseline (compared on the
normalized event-vs-reference speedup so the check is machine- and
size-independent; see :func:`check_against_baseline`).
"""

from __future__ import annotations

import json
import platform
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from repro.cluster.cluster import ClusterConfig
from repro.cluster.memory_store import store_mode
from repro.core.policy import MrdScheme
from repro.dag.dag_builder import ApplicationDAG, build_dag
from repro.policies.scheme import CacheScheme, LruScheme
from repro.simulator.engine import SCHEDULERS, SparkSimulator
from repro.simulator.metrics import RunMetrics
from repro.workloads.synthetic import SyntheticConfig, generate_application

#: Scheme factories the harness exercises: the cheapest baseline and
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

    def cluster(self) -> ClusterConfig:
        return ClusterConfig(
            name=f"bench-{self.num_nodes}n",
            num_nodes=self.num_nodes,
            slots_per_node=self.slots_per_node,
            cache_mb_per_node=self.cache_mb_per_node,
        )


@dataclass(frozen=True)
class BenchProfile:
    """One measured workload profile.

    ``overrides`` reshape the synthetic generator; ``cache_mb`` (when
    set) overrides the cluster's per-node cache so a profile can force
    cache pressure independently of the benchmark's default sizing.
    """

    overrides: dict
    cache_mb: float | None = None


#: Workload profiles measured by the benchmark, in report order.
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


def _time_run(
    dag: ApplicationDAG,
    cluster: ClusterConfig,
    scheme_factory: Callable[[], CacheScheme],
    scheduler: str,
    repeats: int,
    columnar: bool = True,
) -> tuple[float, RunMetrics]:
    """Best-of-``repeats`` wall-clock seconds plus the run's metrics.

    ``columnar=False`` runs the same workload on object-based stores
    (the per-object reference spec), so the payload also tracks what
    the columnar hot path buys over it.
    """
    best = float("inf")
    metrics: RunMetrics | None = None
    for _ in range(repeats):
        with store_mode(columnar):
            sim = SparkSimulator(dag, cluster, scheme_factory(), scheduler=scheduler)
            t0 = time.perf_counter()
            metrics = sim.run()
            best = min(best, time.perf_counter() - t0)
    assert metrics is not None
    return best, metrics


def run_engine_bench(
    config: BenchConfig | None = None,
    include_reference: bool = True,
    profiles: tuple[str, ...] | None = None,
) -> dict:
    """Run the full benchmark matrix; returns the JSON-ready payload."""
    config = config or BenchConfig()
    if profiles is None:
        profiles = bench_profile_names()
    unknown = [p for p in profiles if p not in _PROFILES]
    if unknown:
        raise ValueError(
            f"unknown bench profiles {unknown}; choose from {bench_profile_names()}"
        )
    cluster = config.cluster()
    payload: dict = {
        "bench": "engine",
        "version": 2,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "config": {
            "min_tasks": config.min_tasks,
            "num_nodes": config.num_nodes,
            "slots_per_node": config.slots_per_node,
            "cache_mb_per_node": config.cache_mb_per_node,
            "partitions": config.partitions,
            "seed": config.seed,
            "repeats": config.repeats,
        },
        "runs": [],
        "speedup": {},
        "metrics_identical": True,
    }
    schedulers = SCHEDULERS if include_reference else ("event",)
    for profile in profiles:
        dag = build_bench_dag(config, profile)
        tasks = total_tasks(dag)
        override = _PROFILES[profile].cache_mb
        profile_cluster = (
            cluster.with_cache(override) if override is not None else cluster
        )
        for scheme_name, factory in BENCH_SCHEMES.items():
            seconds: dict[tuple[str, str], float] = {}
            fingerprints: dict[tuple[str, str], tuple] = {}
            # Columnar legs for every scheduling core, plus one
            # object-store event leg so the payload also tracks what the
            # columnar hot path buys over the per-object reference spec.
            legs = [(scheduler, "columnar") for scheduler in schedulers]
            if include_reference:
                legs.append(("event", "object"))
            for scheduler, store in legs:
                secs, metrics = _time_run(
                    dag, profile_cluster, factory, scheduler, config.repeats,
                    columnar=store == "columnar",
                )
                seconds[(scheduler, store)] = secs
                fingerprints[(scheduler, store)] = _metrics_fingerprint(metrics)
                payload["runs"].append({
                    "profile": profile,
                    "scheme": scheme_name,
                    "scheduler": scheduler,
                    "store": store,
                    "cache_mb_per_node": profile_cluster.cache_mb_per_node,
                    "tasks": tasks,
                    "stages": dag.num_active_stages,
                    "seconds": secs,
                    "tasks_per_s": tasks / secs if secs > 0 else float("inf"),
                    "jct": metrics.jct,
                    "hits": metrics.stats.hits,
                    "misses": metrics.stats.misses,
                    "evictions": metrics.stats.evictions,
                    "prefetches_issued": metrics.stats.prefetches_issued,
                })
            if include_reference:
                # Every leg — both cores, both store modes — must agree.
                identical = len(set(fingerprints.values())) == 1
                payload["metrics_identical"] &= identical
                payload["speedup"][f"{profile}/{scheme_name}"] = (
                    seconds[("reference", "columnar")] / seconds[("event", "columnar")]
                )
                payload["speedup"][f"{profile}/{scheme_name}/columnar"] = (
                    seconds[("event", "object")] / seconds[("event", "columnar")]
                )
    return payload


def render_bench(payload: dict) -> str:
    """Human-readable table of one benchmark payload."""
    lines = [
        f"engine bench: {payload['config']['num_nodes']} nodes x "
        f"{payload['config']['slots_per_node']} slots, "
        f">={payload['config']['min_tasks']} tasks, "
        f"best of {payload['config']['repeats']} "
        f"(py{payload.get('python', '?')})",
        f"{'profile':<8} {'scheme':<6} {'scheduler':<10} {'store':<8} "
        f"{'tasks':>6} {'seconds':>9} {'tasks/s':>10}",
    ]
    for run in payload["runs"]:
        lines.append(
            f"{run['profile']:<8} {run['scheme']:<6} {run['scheduler']:<10} "
            f"{run.get('store', 'columnar'):<8} "
            f"{run['tasks']:>6d} {run['seconds']:>9.4f} {run['tasks_per_s']:>10,.0f}"
        )
    for key, speedup in payload.get("speedup", {}).items():
        what = "object/columnar" if key.endswith("/columnar") else "reference/event"
        lines.append(f"speedup {key}: {speedup:.2f}x ({what})")
    if payload.get("speedup"):
        lines.append(
            "metrics identical across schedulers: "
            + ("yes" if payload.get("metrics_identical") else "NO — BUG")
        )
    return "\n".join(lines)


def check_against_baseline(
    payload: dict,
    baseline_path: Path | str,
    max_slowdown: float = 2.0,
) -> list[str]:
    """Compare the event core against a committed baseline payload.

    Returns a list of failure messages (empty = pass).  The compared
    quantity is the *normalized speedup* — event-core time over
    reference-core time, both measured in the same process — which is
    machine- and workload-size-independent: raw tasks/second varies
    with runner hardware and with how per-run fixed costs amortize, but
    an event core that regressed toward the reference core's quadratic
    behaviour shows up on any machine as a collapsing speedup.  A run
    counts as a >``max_slowdown`` regression when its speedup falls
    below ``baseline_speedup / max_slowdown``.

    When either payload carries no reference runs the check falls back
    to raw event-core throughput, which is only meaningful against a
    baseline recorded on comparable hardware.
    """
    baseline = json.loads(Path(baseline_path).read_text())
    failures = []
    base_speedups = baseline.get("speedup") or {}
    cur_speedups = payload.get("speedup") or {}
    if base_speedups and cur_speedups:
        for key, base in base_speedups.items():
            # ``.../columnar`` keys compare the two *store modes* of the
            # event core — a diagnostic hovering around 1x whose noise
            # at smoke sizes says nothing about scheduler regressions.
            if key.endswith("/columnar"):
                continue
            current = cur_speedups.get(key)
            if current is None or base <= 0:
                continue
            if current < base / max_slowdown:
                failures.append(
                    f"{key}: event-core speedup collapsed to {current:.2f}x "
                    f"(baseline {base:.2f}x, limit {base / max_slowdown:.2f}x)"
                )
    else:
        base_rates = {
            (run["profile"], run["scheme"]): run["tasks_per_s"]
            for run in baseline.get("runs", [])
            if run["scheduler"] == "event"
            and run.get("store", "columnar") == "columnar"
        }
        for run in payload["runs"]:
            if run["scheduler"] != "event":
                continue
            if run.get("store", "columnar") != "columnar":
                continue
            base = base_rates.get((run["profile"], run["scheme"]))
            if not base:
                continue
            if base / run["tasks_per_s"] > max_slowdown:
                failures.append(
                    f"{run['profile']}/{run['scheme']}: "
                    f"{run['tasks_per_s']:,.0f} tasks/s is more than "
                    f"{max_slowdown:.2f}x slower than baseline {base:,.0f} tasks/s"
                )
    if not payload.get("metrics_identical", True):
        failures.append("event and reference schedulers diverged in RunMetrics")
    return failures


def save_payload(payload: dict, path: Path | str) -> Path:
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path
