"""Multi-tenant simulation engine: concurrent applications, one cluster.

The single-application :class:`~repro.simulator.engine.SparkSimulator`
owns the whole cluster and runs its stages back to back.  This engine
runs *N* applications against one shared set of worker nodes:

* an :class:`~repro.tenancy.arrivals.ArrivalProcess` streams the
  applications in over simulated time;
* each application keeps its own driver state — DAGScheduler position,
  cache scheme (MRD table, profiler), control plane, per-app block
  managers — wrapped in an :class:`_AppDriver`, a ``SparkSimulator``
  whose lifecycle steps the shared
  :class:`~repro.simulator.engine.EventLoop` drives instead of its own
  ``run()``;
* the worker nodes are shared: one memory/disk store and one disk I/O
  channel per node, with an
  :class:`~repro.tenancy.arbitration.ArbitratedNodePolicy` deciding
  *which application* yields cache space under pressure.

One event loop
--------------
Scheduling is the standalone engine's own loop,
:class:`~repro.simulator.engine.EventLoop`: a standalone run is a
one-tenant run of it, and this engine hands it N applications and
their arrival times.  At equal times the loop orders barrier < arrival
< slot, then application index / node id, so the interleaving is fully
deterministic.  Executor slots are continuous shared resources: tasks
from all applications queue FIFO per node and any free slot runs the
head task; before a task runs, every active application's control
plane and due prefetches are pumped (in arrival order).  What this
engine keeps is the shared cluster (tenant registration, per-app
cluster facades, the eviction router) and teardown.  The shared
cluster is static: its membership never changes, and every
application places blocks over it with the stride placement.

With a single application the loop makes the standalone engine's
scheduling decisions exactly — the equivalence suite asserts the full
``RunMetrics`` are byte-identical across all workloads and schemes.

Teardown: when an application finishes, its metrics are collected
first, then every block in its RDD namespace is dropped from the shared
stores and its tenant policies are deregistered — a finished tenant
neither holds cache nor participates in arbitration.  Its compiled
task plans are freed too: each application's DAG is built for this
stream alone, so nothing could reuse them.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.cluster.block_manager import BlockManager
from repro.cluster.block_manager_master import BlockManagerMaster
from repro.cluster.cluster import Cluster, ClusterConfig, build_cluster
from repro.cluster.node import WorkerNode
from repro.control.plane import RpcConfig
from repro.dag.dag_builder import build_dag
from repro.policies.base import EvictionPolicy
from repro.simulator.engine import AppRun, EventLoop, SparkSimulator
from repro.simulator.metrics import RunMetrics
from repro.sweep.schemes import SchemeLike, resolve_scheme
from repro.tenancy.arbitration import (
    RDD_NAMESPACE_STRIDE,
    ArbitratedNodePolicy,
    ArbitrationPolicy,
    build_arbitration,
    namespace_of,
    owner_of,
)
from repro.tenancy.arrivals import ArrivalProcess, FixedArrivals
from repro.tenancy.metrics import MultiTenantMetrics
from repro.workloads.base import WorkloadParams
from repro.workloads.registry import build_workload


@dataclass(frozen=True)
class AppSpec:
    """One application submitted to the shared cluster."""

    workload: str
    scheme: SchemeLike = "LRU"
    scale: float = 1.0
    iterations: int | None = None
    partitions: int = 8
    #: Accepted for callers that number their applications; no workload
    #: builder reads it, so it changes nothing about the run.
    seed: int = 0
    #: Cache share weight under ``static`` arbitration.
    share: float = 1.0

    def __post_init__(self) -> None:
        if self.share <= 0:
            raise ValueError("share must be positive")
        # Fail fast on unknown scheme names (before any simulation).
        resolve_scheme(self.scheme)

    def params(self) -> WorkloadParams:
        return WorkloadParams(
            scale=self.scale,
            iterations=self.iterations,
            partitions=self.partitions,
        )


class _AppDriver(SparkSimulator):
    """Per-application simulator state, driven by the shared loop.

    Its stages run through the same :class:`EventLoop` a standalone
    ``run()`` uses, next to the other applications' stages, so its own
    ``run()`` is blocked.  It overrides exactly two behaviours of the
    standalone engine: the cluster it builds (a shared-node facade from
    the tenancy engine) and distance-table application,
    :meth:`_apply_table` (routed to this application's own tenant
    policy rather than the node's composite policy), which a delivered
    broadcast and a synchronous plane's direct call both go through.
    """

    def __init__(
        self, sim: MultiTenantSimulator, app_index: int, *args, **kwargs
    ) -> None:
        super().__init__(*args, **kwargs)
        self._sim = sim
        self.app_id = app_index
        self._metrics_app_id = app_index
        #: This application's per-node eviction policies (registered as
        #: tenants of the shared nodes' composite policies).
        self._tenant_policies: list[EvictionPolicy] = []

    def _build_cluster(self) -> Cluster:
        return self._sim._attach(self)

    def _apply_table(
        self, node_id: int, seq: int, distances: Mapping[int, float]
    ) -> bool:
        applied = self._tenant_policies[node_id].on_table_update(seq, distances)
        return applied is False

    def run(self) -> RunMetrics:  # pragma: no cover - misuse guard
        raise RuntimeError(
            "_AppDriver is driven by MultiTenantSimulator; call its run()"
        )


class MultiTenantSimulator:
    """Runs several applications concurrently on one shared cluster."""

    def __init__(
        self,
        apps: list[AppSpec] | tuple[AppSpec, ...],
        cluster_config: ClusterConfig,
        arrivals: ArrivalProcess | None = None,
        arbitration: str | ArbitrationPolicy = "static",
        control_plane: str = "instant",
        control_config: RpcConfig | None = None,
    ) -> None:
        if not apps:
            raise ValueError("a multi-tenant run needs at least one application")
        self.apps = tuple(apps)
        self.cluster_config = cluster_config
        self.arrivals = arrivals if arrivals is not None else FixedArrivals()
        self.arbitration = build_arbitration(arbitration)
        self.control_plane = control_plane
        self.control_config = control_config
        # Per-run state, rebuilt by _setup() and kept after run() so the
        # drained cluster can be inspected.
        #: The shared worker nodes.
        self._nodes: list[WorkerNode] = []
        #: Each application's block-manager master while it is active.
        self._masters: list[BlockManagerMaster | None] = []
        self._loop: EventLoop | None = None

    # ------------------------------------------------------------------
    def run(self) -> MultiTenantMetrics:
        """Simulate every application; returns the aggregate metrics."""
        loop = self._setup()
        times = self.arrivals.times(len(self.apps))
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("arrival times must be non-decreasing")
        if any(t < 0 for t in times):
            raise ValueError("arrival times must be non-negative")
        apps = tuple(loop.run(times))
        makespan = max((app.finish for app in loop.apps), default=0.0)
        return MultiTenantMetrics(
            arbitration=self.arbitration.name,
            arrival_process=self.arrivals.name,
            makespan=makespan,
            apps=apps,
        )

    # ------------------------------------------------------------------
    # the shared cluster
    # ------------------------------------------------------------------
    def _setup(self) -> EventLoop:
        # Shared nodes with one composite (arbitrated) policy each; the
        # base cluster's own master is discarded — block routing happens
        # through each application's private master over the same nodes.
        base = build_cluster(
            self.cluster_config,
            lambda node_id: ArbitratedNodePolicy(self.arbitration),
        )
        self._nodes = base.nodes
        self._masters = [None for _ in self.apps]
        drivers = [
            _AppDriver(
                self,
                index,
                build_dag(build_workload(
                    spec.workload,
                    spec.params(),
                    first_rdd_id=index * RDD_NAMESPACE_STRIDE,
                )),
                self.cluster_config,
                resolve_scheme(spec.scheme).build(),
                control_plane=self.control_plane,
                control_config=self.control_config,
            )
            for index, spec in enumerate(self.apps)
        ]
        self._loop = EventLoop(drivers, on_finish=self._teardown)
        return self._loop

    def _attach(self, driver: _AppDriver) -> Cluster:
        """Register ``driver``'s application as a tenant; build its
        per-app cluster facade over the shared nodes."""
        driver._tenant_policies = []
        for node in self._nodes:
            policy = driver.scheme.policy_factory(node.node_id)
            driver._tenant_policies.append(policy)
            composite = node.policy
            assert isinstance(composite, ArbitratedNodePolicy)
            composite.register_tenant(
                driver.app_id,
                policy,
                share=self.apps[driver.app_id].share,
                distance_of=driver.scheme.reference_distance,
            )
        master = BlockManagerMaster(self._nodes)
        for mgr in master.managers:
            mgr.eviction_router = self._router_for(mgr.node.node_id)
        self._masters[driver.app_id] = master
        return Cluster(config=self.cluster_config, nodes=self._nodes, master=master)

    def _router_for(self, node_id: int):
        """Eviction router: charge an evicted block to its owner app."""

        def route(block_id) -> BlockManager | None:
            owner = owner_of(block_id.rdd_id)
            if 0 <= owner < len(self._masters):
                master = self._masters[owner]
                if master is not None:
                    return master.managers[node_id]
            return None

        return route

    # ------------------------------------------------------------------
    def _teardown(self, app: AppRun, t: float) -> None:
        """A finished application leaves the shared cluster."""
        # In-flight prefetches are abandoned, exactly as a standalone
        # run ends with transfers still on the wire (the channel time
        # they reserved stays reserved — the I/O physically happened).
        master = self._masters[app.index]
        assert master is not None
        for mgr in master.managers:
            mgr.inflight_prefetch.clear()
        # Teardown: the namespace leaves memory and disk, then the
        # tenant leaves arbitration.  Removal order matters — dropping
        # blocks first keeps on_remove routing to a live tenant.
        lo, hi = namespace_of(app.index)
        master.drop_rdd_range(lo, hi)
        for node in self._nodes:
            composite = node.policy
            assert isinstance(composite, ArbitratedNodePolicy)
            composite.deregister_tenant(app.index)
        self._masters[app.index] = None
        # Its DAG is private to this stream: no later run reuses the plans.
        app.driver._release_plans()


def simulate_multi_tenant(
    apps: list[AppSpec] | tuple[AppSpec, ...],
    cluster_config: ClusterConfig,
    **kwargs,
) -> MultiTenantMetrics:
    """One-shot convenience wrapper around :class:`MultiTenantSimulator`."""
    return MultiTenantSimulator(apps, cluster_config, **kwargs).run()
