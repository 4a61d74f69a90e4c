"""The benchmark's three workloads.

Each workload has the same shape:

* ``setup(seed, scratch)`` generates the inputs (timed as set-up);
* ``steps(inputs)`` lists the calls that make up one timed unit of work;
* ``collect(inputs, outputs)`` turns their results into a
  :class:`UnitResult` outside the timer;
* ``check(inputs, units)`` re-runs samples and checks invariants outside
  the timer, returning ``(operations attempted, failure messages)``.

The inputs depend only on the seed.  See ``perfbench/README.md`` for why
each workload was chosen and which layers it stresses.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import random
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from repro.bench.engine_bench import BenchConfig
from repro.cluster.cluster import ClusterConfig
from repro.control.plane import RpcConfig
from repro.core.policy import MrdScheme
from repro.dag.dag_builder import build_dag
from repro.experiments import fig4
from repro.experiments.harness import DEFAULT_CACHE_FRACTIONS, cache_mb_for
from repro.policies.scheme import LruScheme
from repro.simulator.config import MAIN_CLUSTER
from repro.simulator.engine import SparkSimulator
from repro.simulator.metrics import RunMetrics
from repro.simulator.reporting import metrics_to_dict
from repro.sweep.runner import run_cell, run_cells, scheduler_mismatches
from repro.sweep.spec import CellSpec
from repro.sweep.store import ResultStore
from repro.tenancy.arrivals import PoissonArrivals
from repro.tenancy.engine import AppSpec, MultiTenantSimulator
from repro.tenancy.metrics import mt_metrics_to_dict
from repro.workloads.base import WorkloadParams
from repro.workloads.registry import SPARKBENCH_WORKLOADS, build_workload
from repro.workloads.synthetic import SyntheticConfig, generate_application


@dataclass
class UnitResult:
    """What one timed unit produced."""

    #: Host seconds of each operation (a sweep cell or a simulation run).
    op_seconds: list[float]
    #: Every RunMetrics the unit produced (one per application run).
    runs: list[RunMetrics]
    #: Simulated tasks completed.
    tasks: int
    mrd_norm_jct: float
    mrd_hit_ratio: float
    #: Operations that ended in an error.
    failed: int = 0
    #: Applications simulated through the tenancy layer.
    tenant_apps: int = 0
    #: Digest of every simulated result, for the repeat check.
    identity: str = ""


def digest(results) -> str:
    """SHA-256 of the JSON form of ``results``."""
    blob = json.dumps(results, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def simulated_tasks(metrics: RunMetrics) -> int:
    return sum(record.num_tasks for record in metrics.stage_records)


def invariant_failures(label: str, runs: list[RunMetrics]) -> list[str]:
    """Prefetch fates and control messages must add up in every run."""
    failures = []
    for m in runs:
        if m.stats.prefetches_used > m.stats.prefetches_issued:
            failures.append(
                f"{label} {m.workload}/{m.scheme}: prefetches_used "
                f"{m.stats.prefetches_used} > issued {m.stats.prefetches_issued}"
            )
        c = m.control
        if c.delivered + c.dropped > c.sent:
            failures.append(
                f"{label} {m.workload}/{m.scheme}: delivered {c.delivered} + "
                f"dropped {c.dropped} > sent {c.sent}"
            )
    return failures


def repeat_failures(label: str, units: list[UnitResult]) -> list[str]:
    """Simulated results must repeat exactly across the units of a run."""
    return [
        f"{label}: unit {i} simulated results differ from unit 0"
        for i, unit in enumerate(units[1:], start=1)
        if unit.identity != units[0].identity
    ]


# ----------------------------------------------------------------------
# paper-sweep: the Fig. 4 grid through run_cells and a result store
# ----------------------------------------------------------------------
@dataclass
class SweepInputs:
    #: SparkBench workloads in the (seeded) order the sweep runs them.
    order: tuple[str, ...]
    #: Per workload, the (cache fraction, scheme) cell the check re-runs.
    sample: dict[str, tuple[float, str]]
    scratch: Path
    #: Empty store the next unit sweeps into.
    store: ResultStore = field(init=False)
    #: Store the last unit filled.
    swept: ResultStore | None = None

    def __post_init__(self) -> None:
        self.store = ResultStore(tempfile.mkdtemp(prefix="store-", dir=self.scratch))

    def next_store(self) -> None:
        self.swept = self.store
        self.__post_init__()


def _fig4_cell(workload: str, fraction: float, scheme: str) -> CellSpec:
    """The cell ``fig4.run`` submits for this grid point."""
    return CellSpec(
        workload=workload,
        scheme=scheme,
        scheme_spec=fig4.FIG4_SCHEMES[scheme],
        cluster=MAIN_CLUSTER.name,
        cache_fraction=fraction,
        partitions=WorkloadParams().partitions,
    )


class PaperSweep:
    name = "paper-sweep"
    #: What one timed operation is.
    operation = "cell"
    default_seed = 0
    imports = ("repro.experiments.fig4", "repro.sweep.runner", "repro.sweep.store")
    #: Layers whose entry points must record calls in a traced run.
    expected_layers = (
        "workloads.build", "dag.build", "dag.peak_live", "simulator.run",
        "cluster.access", "cluster.put", "cluster.promote", "policies.select",
        "policies.batch", "core.advance", "core.plan", "control.send",
        "sweep.run_cell", "sweep.store_put", "sweep.fingerprint",
    )

    def setup(self, seed: int, scratch: Path) -> SweepInputs:
        rng = random.Random(seed)
        order = [spec.name for spec in SPARKBENCH_WORKLOADS]
        rng.shuffle(order)
        sample = {
            name: (rng.choice(DEFAULT_CACHE_FRACTIONS), rng.choice(sorted(fig4.FIG4_SCHEMES)))
            for name in order
        }
        return SweepInputs(order=tuple(order), sample=sample, scratch=scratch)

    def steps(self, inputs: SweepInputs) -> list[Callable[[], list[fig4.Fig4Row]]]:
        # One fig4.run per SparkBench workload (what fig4.run does in a
        # loop), so the host-speed probe runs every second or so.
        return [
            functools.partial(fig4.run, workloads=(name,), jobs=1, store=inputs.store)
            for name in inputs.order
        ]

    def collect(self, inputs: SweepInputs, outputs: list[list[fig4.Fig4Row]]) -> UnitResult:
        rows = [row for part in outputs for row in part]
        results = list(inputs.store)
        runs = [r.run_metrics() for r in results if r.ok]
        # Average in workload-name order so the value does not depend on
        # the seeded run order by even one bit.
        avg = fig4.averages(sorted(rows, key=lambda r: r.workload))
        unit = UnitResult(
            op_seconds=[r.elapsed_s for r in results],
            runs=runs,
            tasks=sum(simulated_tasks(m) for m in runs),
            mrd_norm_jct=avg["full"],
            mrd_hit_ratio=avg["mrd_hit"],
            failed=sum(1 for r in results if not r.ok),
            identity=digest({r.fingerprint: r.metrics for r in results}),
        )
        inputs.next_store()
        return unit

    def check(self, inputs: SweepInputs, units: list[UnitResult]) -> tuple[int, list[str]]:
        failures = repeat_failures(self.name, units)
        for unit in units:
            failures += invariant_failures(self.name, unit.runs)
            if unit.failed:
                failures.append(f"{self.name}: {unit.failed} sweep cell(s) failed")
        expected = len(inputs.order) * len(DEFAULT_CACHE_FRACTIONS) * len(fig4.FIG4_SCHEMES)
        if len(units[0].op_seconds) != expected:
            failures.append(
                f"{self.name}: store holds {len(units[0].op_seconds)} cells, expected {expected}"
            )
        # Per workload, one reference-core cell against its event-core
        # twin served from the swept store, and a fresh event-core re-run.
        attempted = 0
        for workload in inputs.order:
            cell = _fig4_cell(workload, *inputs.sample[workload])
            label = f"{self.name} {cell.label()}"
            outcome = run_cells(
                [cell, dataclasses.replace(cell, scheduler="reference")],
                store=inputs.swept,
            )
            again = run_cell(cell)
            attempted += 2
            if outcome.cached != 1:
                failures.append(f"{label}: not found in the swept store")
            if outcome.errors or not again.ok:
                failures.append(f"{label}: check run failed")
                continue
            failures += [f"{self.name}: {m}" for m in scheduler_mismatches(outcome)]
            if again.metrics != outcome.result_for(cell).metrics:
                failures.append(f"{label}: re-run metrics differ from the sweep's")
        return attempted, failures


# ----------------------------------------------------------------------
# sched-bound: a large synthetic application with almost no caching
# ----------------------------------------------------------------------
#: The engine benchmark's cluster: 16 nodes x 4 slots, 200 MB per node.
BENCH_CLUSTER = BenchConfig().cluster()
#: The engine benchmark's ``sched`` profile at twice its 320 partitions,
#: so that even the fastest unit lasts about two seconds.
SCHED_PROFILE = {"cache_probability": 0.05, "reuse_probability": 0.3, "partitions": 640}
SCHED_JOBS = 432
#: Job count of the reduced application the cross-core check runs.
SCHED_CHECK_JOBS = 8
SCHEMES = (("LRU", LruScheme), ("MRD", MrdScheme))


@dataclass
class SchedInputs:
    seed: int
    dag: object


class SchedBound:
    name = "sched-bound"
    operation = "run"
    default_seed = 7
    imports = (
        "repro.workloads.synthetic", "repro.dag.dag_builder",
        "repro.simulator.engine", "repro.core.policy", "repro.policies.scheme",
    )
    expected_layers = (
        "dag.build", "simulator.run", "cluster.access", "cluster.put",
        "core.advance", "core.plan", "control.send",
    )

    @staticmethod
    def _dag(seed: int, jobs: int):
        config = SyntheticConfig(num_jobs=jobs, **SCHED_PROFILE)
        return build_dag(generate_application(seed, config))

    def setup(self, seed: int, scratch: Path) -> SchedInputs:
        return SchedInputs(seed=seed, dag=self._dag(seed, SCHED_JOBS))

    def steps(self, inputs: SchedInputs) -> list[Callable[[], tuple[RunMetrics, float]]]:
        return [functools.partial(self._leg, inputs, scheme) for _, scheme in SCHEMES]

    @staticmethod
    def _leg(inputs: SchedInputs, scheme) -> tuple[RunMetrics, float]:
        start = time.perf_counter()
        metrics = SparkSimulator(inputs.dag, BENCH_CLUSTER, scheme()).run()
        return metrics, time.perf_counter() - start

    def collect(self, inputs: SchedInputs, legs) -> UnitResult:
        (lru, _), (mrd, _) = legs
        runs = [lru, mrd]
        return UnitResult(
            op_seconds=[secs for _, secs in legs],
            runs=runs,
            tasks=sum(simulated_tasks(m) for m in runs),
            mrd_norm_jct=mrd.jct / lru.jct,
            mrd_hit_ratio=mrd.hit_ratio,
            identity=digest([metrics_to_dict(m) for m in runs]),
        )

    def check(self, inputs: SchedInputs, units: list[UnitResult]) -> tuple[int, list[str]]:
        failures = repeat_failures(self.name, units)
        for unit in units:
            failures += invariant_failures(self.name, unit.runs)
        small = self._dag(inputs.seed, SCHED_CHECK_JOBS)
        for name, scheme in SCHEMES:
            by_core = {
                core: metrics_to_dict(
                    SparkSimulator(small, BENCH_CLUSTER, scheme(), scheduler=core).run()
                )
                for core in ("event", "reference")
            }
            if by_core["event"] != by_core["reference"]:
                failures.append(f"{self.name} {name}: event and reference cores disagree")
        return 2 * len(SCHEMES), failures


# ----------------------------------------------------------------------
# tenants-rpc: a Poisson stream of applications sharing one cluster
# ----------------------------------------------------------------------
TENANT_WORKLOADS = ("KM", "PR", "SVD++", "CC")
TENANT_APPS = 64
TENANT_PARTITIONS = 48
#: Applications per simulated second, and the stream's arrival seed.
TENANT_RATE = 0.25
TENANT_ARRIVAL_SEED = 0
TENANT_CACHE_FRACTION = 0.5
TENANT_LOSS = 0.02
#: (scheme every app runs, arbitration between apps) per stream.
TENANT_LEGS = (("LRU", "static"), ("MRD", "global-mrd"))


@dataclass
class TenantInputs:
    cluster: ClusterConfig
    rpc: RpcConfig
    apps: dict[str, list[AppSpec]]


class TenantsRpc:
    name = "tenants-rpc"
    operation = "run"
    default_seed = 0
    imports = ("repro.tenancy.engine", "repro.experiments.harness")
    expected_layers = (
        "workloads.build", "dag.build", "dag.peak_live", "tenancy.run",
        "tenancy.arbitrate", "cluster.access", "cluster.put", "policies.select",
        "core.advance", "core.plan", "control.send", "control.pump",
    )

    def setup(self, seed: int, scratch: Path) -> TenantInputs:
        params = WorkloadParams(partitions=TENANT_PARTITIONS)
        cache_mb = max(
            cache_mb_for(
                build_dag(build_workload(name, params)), TENANT_CACHE_FRACTION, MAIN_CLUSTER
            )
            for name in TENANT_WORKLOADS
        )
        apps = {
            scheme: [
                AppSpec(
                    workload=TENANT_WORKLOADS[i % len(TENANT_WORKLOADS)],
                    scheme=scheme,
                    partitions=TENANT_PARTITIONS,
                    seed=i,
                )
                for i in range(TENANT_APPS)
            ]
            for scheme, _ in TENANT_LEGS
        }
        # The seed draws the rpc plane's losses; the arrival stream is
        # fixed, because its shape alone moves the sojourn ratio by 30%.
        return TenantInputs(
            cluster=MAIN_CLUSTER.with_cache(cache_mb),
            rpc=RpcConfig(loss_rate=TENANT_LOSS, seed=seed + 3),
            apps=apps,
        )

    def steps(self, inputs: TenantInputs) -> list[Callable[[], tuple]]:
        return [
            functools.partial(self._leg, inputs, scheme, arbitration)
            for scheme, arbitration in TENANT_LEGS
        ]

    @staticmethod
    def _leg(inputs: TenantInputs, scheme: str, arbitration: str) -> tuple:
        start = time.perf_counter()
        metrics = MultiTenantSimulator(
            inputs.apps[scheme],
            inputs.cluster,
            arrivals=PoissonArrivals(rate=TENANT_RATE, seed=TENANT_ARRIVAL_SEED),
            arbitration=arbitration,
            control_plane="rpc",
            control_config=inputs.rpc,
        ).run()
        return metrics, time.perf_counter() - start

    def collect(self, inputs: TenantInputs, legs) -> UnitResult:
        (lru, _), (mrd, _) = legs
        runs = list(lru.apps) + list(mrd.apps)
        return UnitResult(
            op_seconds=[secs for _, secs in legs],
            runs=runs,
            tasks=sum(simulated_tasks(m) for m in runs),
            mrd_norm_jct=mrd.mean_jct / lru.mean_jct,
            mrd_hit_ratio=mrd.aggregate_hit_ratio,
            tenant_apps=len(runs),
            identity=digest([mt_metrics_to_dict(m) for m, _ in legs]),
        )

    def check(self, inputs: TenantInputs, units: list[UnitResult]) -> tuple[int, list[str]]:
        failures = repeat_failures(self.name, units)
        for unit in units:
            failures += invariant_failures(self.name, unit.runs)
            if unit.tenant_apps != TENANT_APPS * len(TENANT_LEGS):
                failures.append(f"{self.name}: {unit.tenant_apps} applications finished")
            failures += [
                f"{self.name} app {m.app_id}: sojourn {m.jct}"
                for m in unit.runs if not m.jct > 0
            ]
        return 0, failures


WORKLOADS = {w.name: w for w in (PaperSweep(), SchedBound(), TenantsRpc())}
