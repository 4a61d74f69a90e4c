"""Multi-tenant simulation engine: concurrent applications, one cluster.

The single-application :class:`~repro.simulator.engine.SparkSimulator`
owns the whole cluster and runs its stages back to back.  This engine
runs *N* applications against one shared set of worker nodes:

* an :class:`~repro.tenancy.arrivals.ArrivalProcess` streams the
  applications in over simulated time;
* each application keeps its own driver state — DAGScheduler position,
  cache scheme (MRD table, profiler), control plane, per-app block
  managers — wrapped in an :class:`_AppDriver`, a ``SparkSimulator``
  whose lifecycle hooks are driven by this engine's global event loop
  instead of its own ``run()``;
* the worker nodes are shared: one memory/disk store and one disk I/O
  channel per node, with an
  :class:`~repro.tenancy.arbitration.ArbitratedNodePolicy` deciding
  *which application* yields cache space under pressure.

Global event loop
-----------------
One heap orders four event kinds: cluster **membership** changes
(timed joins and decommissions), stage **barriers** (an application's
active stage completed), application **arrivals**, and executor **slot**
frees.  Ties resolve membership < barrier < arrival < slot, then by
application index / node id, so the interleaving is fully deterministic.  Executor
slots are continuous shared resources: tasks from all applications
queue FIFO per node and any free slot runs the head task; a slot that
finds no work parks and is woken by the next enqueue.  Before a task
runs, every active application's control plane and due prefetches are
pumped (in arrival order) — the same peek-guarded pumping the
single-app event core does per task.

With a single application this loop reproduces the standalone engine's
scheduling decisions exactly — the equivalence suite asserts the full
``RunMetrics`` are byte-identical across all workloads and schemes.

Teardown: when an application finishes, its metrics are collected
first, then every block in its RDD namespace is dropped from the shared
stores and its tenant policies are deregistered — a finished tenant
neither holds cache nor participates in arbitration.

Elastic membership
------------------
Unlike the single-application engine's stage-boundary churn, a shared
cluster changes size at wall-clock *times*: :class:`TimedNodeJoin` and
:class:`TimedNodeDecommission` fire from the global heap, mid-stage if
need be.  A join appends one shared worker node, gives every active
application a tenant policy on it, and runs each driver's own side of
the join, :meth:`SparkSimulator._add_node` (its §4.4
``WorkerRegister``, answered with the current distance table).  A
decommission runs each driver's :meth:`SparkSimulator._remove_node`
over that application's resident blocks on the node (its
:class:`~repro.cluster.rebalance.RebalancePolicy` picks what
migrates), clears the node's stores, re-homes its queued tasks
through each owner's placement, and retires the slot.  Applications
arriving later build their block-manager masters over the
then-current live set.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

from repro.cluster.block_manager import BlockManager
from repro.cluster.block_manager_master import BlockManagerMaster
from repro.cluster.cluster import Cluster, ClusterConfig, build_cluster, make_worker
from repro.cluster.placement import PLACEMENTS
from repro.cluster.rebalance import REBALANCES
from repro.control.messages import ControlMessage, StageBoundary
from repro.control.plane import RpcConfig
from repro.dag.dag_builder import ApplicationDAG, build_dag
from repro.dag.structures import Stage
from repro.policies.base import EvictionPolicy
from repro.simulator.engine import SparkSimulator
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

#: Event-kind priorities at equal times: change the cluster first, then
#: finish/advance stages, then admit new applications, then dispatch
#: tasks.
_MEMBER, _BARRIER, _ARRIVAL, _SLOT = 0, 1, 2, 3


@dataclass(frozen=True)
class TimedNodeJoin:
    """Grow the shared cluster at simulated time ``at``.

    ``node_id`` pins the joining node's id (a decommissioned slot may
    rejoin); ``None`` opens the next fresh slot.
    """

    at: float
    node_id: int | None = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("at must be non-negative")
        if self.node_id is not None and self.node_id < 0:
            raise ValueError("node_id must be non-negative")


@dataclass(frozen=True)
class TimedNodeDecommission:
    """Permanently remove a shared node at simulated time ``at``.

    ``None`` sheds the highest live node id (the autoscaler shape).
    """

    at: float
    node_id: int | None = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("at must be non-negative")
        if self.node_id is not None and self.node_id < 0:
            raise ValueError("node_id must be non-negative")


TimedMembershipEvent = TimedNodeJoin | TimedNodeDecommission


@dataclass(frozen=True)
class AppSpec:
    """One application submitted to the shared cluster."""

    workload: str
    scheme: SchemeLike = "LRU"
    scale: float = 1.0
    iterations: int | None = None
    partitions: int = 8
    seed: int = 0
    #: Cache share weight under share-based arbitration (static/maxmin).
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
            seed=self.seed,
        )


class _AppDriver(SparkSimulator):
    """Per-application simulator state, driven by the global loop.

    Overrides exactly two behaviours of the standalone engine: the
    cluster it builds (a shared-node facade from the tenancy engine)
    and distance-table delivery (routed to this application's own
    tenant policy rather than the node's composite policy).  Joins and
    decommissions reuse the standalone per-driver steps unchanged
    (``_add_node``/``_remove_node``); the tenancy engine only adds the
    shared-node parts around them.
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

    def _deliver_table(self, msg: ControlMessage, t: float) -> bool:
        assert isinstance(msg, StageBoundary)
        applied = self._tenant_policies[msg.node_id].on_table_update(
            msg.seq, msg.distances
        )
        return applied is False

    def run(self) -> RunMetrics:  # pragma: no cover - misuse guard
        raise RuntimeError(
            "_AppDriver is driven by MultiTenantSimulator; call its run()"
        )


@dataclass
class _AppState:
    """Bookkeeping for one application inside the global loop."""

    index: int
    spec: AppSpec
    dag: ApplicationDAG
    driver: _AppDriver
    stages: list[Stage]
    master: BlockManagerMaster | None = None
    arrival: float = 0.0
    finish: float = 0.0
    stage_idx: int = 0
    remaining: int = 0
    stage_start: float = 0.0
    stage_end: float = 0.0
    metrics: RunMetrics | None = None


#: One queued task: (not_before, app_index, stage, partition, fixed_cost).
_QueueItem = tuple[float, int, Stage, int, float]


@dataclass
class _RunState:
    """Per-run mutable state (a fresh one per :meth:`run` call)."""

    apps: list[_AppState]
    nodes: list
    heap: list[tuple[float, int, int]] = field(default_factory=list)
    queues: list[deque[_QueueItem]] = field(default_factory=list)
    #: Free times of idle (parked) executor slots, per node.
    parked: list[list[float]] = field(default_factory=list)
    active: list[_AppState] = field(default_factory=list)
    #: Node ids decommissioned so far (slots persist; liveness does not).
    dead: set[int] = field(default_factory=set)


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
        promote_on_miss: bool = True,
        placement: str = "stride",
        memberships: list[TimedMembershipEvent] | tuple[TimedMembershipEvent, ...] = (),
        rebalance: str = "drop",
    ) -> None:
        if not apps:
            raise ValueError("a multi-tenant run needs at least one application")
        if placement not in PLACEMENTS:
            raise ValueError(f"unknown placement {placement!r} (choose from {PLACEMENTS})")
        if rebalance not in REBALANCES:
            raise ValueError(f"unknown rebalance {rebalance!r} (choose from {REBALANCES})")
        for event in memberships:
            if not isinstance(event, (TimedNodeJoin, TimedNodeDecommission)):
                raise TypeError(
                    "memberships must be TimedNodeJoin/TimedNodeDecommission, "
                    f"got {event!r}"
                )
        self.apps = tuple(apps)
        self.cluster_config = cluster_config
        self.arrivals = arrivals if arrivals is not None else FixedArrivals()
        self.arbitration = build_arbitration(arbitration)
        self.control_plane = control_plane
        self.control_config = control_config
        self.promote_on_miss = promote_on_miss
        self.placement = placement
        self.memberships = tuple(memberships)
        self.rebalance = rebalance
        self._state: _RunState | None = None

    # ------------------------------------------------------------------
    def run(self) -> MultiTenantMetrics:
        """Simulate every application; returns the aggregate metrics."""
        state = self._setup()
        times = self.arrivals.times(len(self.apps))
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("arrival times must be non-decreasing")
        heap = state.heap
        for app, t in zip(state.apps, times):
            if t < 0:
                raise ValueError("arrival times must be non-negative")
            heapq.heappush(heap, (t, _ARRIVAL, app.index))
        for i, event in enumerate(self.memberships):
            heapq.heappush(heap, (event.at, _MEMBER, i))
        while heap:
            t, kind, key = heapq.heappop(heap)
            if kind == _MEMBER:
                self._on_membership(key, t)
            elif kind == _BARRIER:
                self._on_barrier(key, t)
            elif kind == _ARRIVAL:
                self._on_arrival(key, t)
            else:
                self._on_slot(key, t)
        apps = tuple(app.metrics for app in state.apps)
        assert all(m is not None for m in apps)
        makespan = max((app.finish for app in state.apps), default=0.0)
        # The drained state is kept around for post-run inspection (the
        # isolation tests assert stores are empty and tenants gone); a
        # subsequent run() rebuilds everything from scratch in _setup().
        return MultiTenantMetrics(
            arbitration=self.arbitration.name,
            arrival_process=self.arrivals.name,
            makespan=makespan,
            apps=apps,
        )

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def _setup(self) -> _RunState:
        # Shared nodes with one composite (arbitrated) policy each; the
        # base cluster's own master is discarded — block routing happens
        # through each application's private master over the same nodes.
        base = build_cluster(
            self.cluster_config,
            lambda node_id: ArbitratedNodePolicy(self.arbitration),
        )
        apps = []
        for index, spec in enumerate(self.apps):
            application = build_workload(
                spec.workload,
                spec.params(),
                first_rdd_id=index * RDD_NAMESPACE_STRIDE,
            )
            dag = build_dag(application)
            driver = _AppDriver(
                self,
                index,
                dag,
                self.cluster_config,
                resolve_scheme(spec.scheme).build(),
                promote_on_miss=self.promote_on_miss,
                control_plane=self.control_plane,
                control_config=self.control_config,
                placement=self.placement,
                rebalance=self.rebalance,
            )
            apps.append(
                _AppState(
                    index=index,
                    spec=spec,
                    dag=dag,
                    driver=driver,
                    stages=list(dag.active_stages),
                )
            )
        state = _RunState(apps=apps, nodes=base.nodes)
        state.queues = [deque() for _ in base.nodes]
        state.parked = [[0.0] * node.num_slots for node in base.nodes]
        self._state = state
        return state

    def _attach(self, driver: _AppDriver) -> Cluster:
        """Register ``driver``'s application as a tenant; build its
        per-app cluster facade over the shared nodes."""
        state = self._state
        assert state is not None
        app = state.apps[driver.app_id]
        driver._tenant_policies = []
        for node in state.nodes:
            self._register_tenant(driver, node.node_id)
        master = BlockManagerMaster(state.nodes, placement=self.placement)
        # A late arrival joins the cluster as it is *now*: nodes already
        # decommissioned are dead slots from this application's first
        # breath (they never take placement, never run its tasks).
        for node_id in sorted(state.dead):
            master.decommission_node(node_id)
        for mgr in master.managers:
            mgr.eviction_router = self._router_for(mgr.node.node_id)
        app.master = master
        return Cluster(config=self.cluster_config, nodes=state.nodes, master=master)

    def _register_tenant(self, driver: _AppDriver, node_id: int) -> None:
        """Give ``driver`` a tenant policy on shared node ``node_id``.

        A rejoining slot keeps the (emptied) policy it already has,
        exactly like the standalone engine reuses a decommissioned
        node's policy.
        """
        state = self._state
        assert state is not None
        policies = driver._tenant_policies
        if node_id < len(policies):
            return
        assert node_id == len(policies), "shared nodes join one at a time"
        policy = driver.scheme.policy_factory(node_id)
        policies.append(policy)
        composite = state.nodes[node_id].policy
        assert isinstance(composite, ArbitratedNodePolicy)
        composite.register_tenant(
            driver.app_id,
            policy,
            share=self.apps[driver.app_id].share,
            distance_of=driver.scheme.reference_distance,
        )

    def _router_for(self, node_id: int):
        """Eviction router: charge an evicted block to its owner app."""

        def route(block_id) -> BlockManager | None:
            state = self._state
            if state is None:
                return None
            owner = owner_of(block_id.rdd_id)
            if 0 <= owner < len(state.apps):
                master = state.apps[owner].master
                if master is not None:
                    return master.managers[node_id]
            return None

        return route

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _on_arrival(self, index: int, t: float) -> None:
        state = self._state
        assert state is not None
        app = state.apps[index]
        app.arrival = t
        state.active.append(app)
        app.driver._start_run(t)
        if not app.stages:
            self._finish_app(app, t)
            return
        first = app.stages[0]
        app.driver._begin_stage(first, t)
        self._enqueue_stage(app, first, t)

    def _on_barrier(self, index: int, t: float) -> None:
        state = self._state
        assert state is not None
        app = state.apps[index]
        stage = app.stages[app.stage_idx]
        driver = app.driver
        driver._record_stage(stage, app.stage_start, t)
        app.stage_idx += 1
        if app.stage_idx < len(app.stages):
            nxt = app.stages[app.stage_idx]
            driver._begin_stage(nxt, t)
            self._enqueue_stage(app, nxt, t)
        else:
            self._finish_app(app, t)

    def _on_slot(self, node_id: int, t0: float) -> None:
        state = self._state
        assert state is not None
        queue = state.queues[node_id]
        if not queue:
            state.parked[node_id].append(t0)
            return
        head_not_before = queue[0][0]
        if head_not_before > t0:
            heapq.heappush(state.heap, (head_not_before, _SLOT, node_id))
            return
        # Peek-guarded pumping, in application arrival order: control
        # deliveries first (a delivered prefetch order may push an
        # already-due completion), then due prefetch completions —
        # exactly the standalone event core's per-task sequence.
        for active in state.active:
            driver = active.driver
            control = driver.control
            if control.heap and control.heap[0][0] <= t0:
                control.pump(t0)
            prefetch_heap = driver._prefetch_heap
            if prefetch_heap and prefetch_heap[0][0] <= t0:
                driver._apply_due_prefetches(t0)
        _, app_index, stage, partition, fixed = queue.popleft()
        app = state.apps[app_index]
        t_end = app.driver._run_task(stage, partition, node_id, t0, fixed)
        heapq.heappush(state.heap, (t_end, _SLOT, node_id))
        if t_end > app.stage_end:
            app.stage_end = t_end
        app.remaining -= 1
        if app.remaining == 0:
            heapq.heappush(state.heap, (app.stage_end, _BARRIER, app.index))

    # ------------------------------------------------------------------
    # elastic membership
    # ------------------------------------------------------------------
    def _on_membership(self, index: int, t: float) -> None:
        event = self.memberships[index]
        if isinstance(event, TimedNodeJoin):
            self._join_shared_node(event.node_id, t)
        else:
            self._decommission_shared_node(event.node_id, t)

    def _join_shared_node(self, node_id: int | None, t: float) -> None:
        """Grow the shared node set; every active application takes the
        newcomer as a tenant target and registers it (its own §4.4
        path)."""
        state = self._state
        assert state is not None
        if node_id is None:
            node_id = len(state.nodes)
        if node_id < len(state.nodes):
            if node_id not in state.dead:
                return  # pinned join of a live node: nothing to do
            node = state.nodes[node_id]  # a decommissioned slot rejoins
            state.dead.discard(node_id)
        elif node_id == len(state.nodes):
            node = make_worker(
                self.cluster_config,
                node_id,
                lambda nid: ArbitratedNodePolicy(self.arbitration),
            )
            state.nodes.append(node)
            state.queues.append(deque())
            state.parked.append([t] * node.num_slots)
        else:
            raise ValueError(
                f"join of node {node_id} does not extend the cluster "
                f"(next free id is {len(state.nodes)})"
            )
        for app in state.active:
            self._register_tenant(app.driver, node_id)
            mgr = app.driver._add_node(node, t)
            mgr.eviction_router = self._router_for(node_id)

    def _decommission_shared_node(self, node_id: int | None, t: float) -> None:
        """Retire a shared node: each active application rebalances its
        resident blocks through its own policy and placement; then the
        node's stores clear, its queued tasks re-home, and the slot
        leaves liveness."""
        state = self._state
        assert state is not None
        live = [i for i in range(len(state.nodes)) if i not in state.dead]
        if node_id is None:
            node_id = live[-1]  # autoscaler shape: shed the newest node
        if node_id in state.dead or node_id >= len(state.nodes) or len(live) <= 1:
            return  # already gone, unknown, or the last node must stay
        node = state.nodes[node_id]
        for app in state.active:
            lo, hi = namespace_of(app.index)
            resident = [b for b in node.memory.blocks() if lo <= b.id.rdd_id < hi]
            app.driver._remove_node(node_id, t, resident)
        node.clear()  # the node's stores leave with it
        state.dead.add(node_id)
        # Re-home the dead node's queued tasks through each owner's new
        # placement, FIFO order preserved per destination.  Slots busy on
        # this node finish their current task, then park forever (nothing
        # enqueues to a dead node) — unless the slot rejoins later.
        queue = state.queues[node_id]
        fixed_cache: dict[tuple[int, int], list[float]] = {}
        while queue:
            not_before, app_index, stage, partition, _ = queue.popleft()
            app = state.apps[app_index]
            master = app.master
            assert master is not None
            new_node = master.task_node_id(partition)
            key = (app_index, stage.seq)
            if key not in fixed_cache:
                fixed_cache[key] = app.driver._stage_costs(stage)
            state.queues[new_node].append(
                (not_before, app_index, stage, partition, fixed_cache[key][new_node])
            )
            self._wake_node(new_node, t)
        # Idle slots stay parked (never woken: nothing enqueues to a dead
        # node), so a later rejoin of this slot finds them intact.

    # ------------------------------------------------------------------
    # stage and application lifecycle
    # ------------------------------------------------------------------
    def _enqueue_stage(self, app: _AppState, stage: Stage, now: float) -> None:
        state = self._state
        assert state is not None
        driver = app.driver
        fixed = driver._stage_costs(stage)
        pending = driver._pending_by_node(stage)
        app.remaining = stage.num_tasks
        app.stage_start = now
        app.stage_end = now
        if stage.num_tasks == 0:
            heapq.heappush(state.heap, (now, _BARRIER, app.index))
            return
        for node_id, partitions in enumerate(pending):
            if not partitions:
                continue
            queue = state.queues[node_id]
            for partition in partitions:
                queue.append((now, app.index, stage, partition, fixed[node_id]))
            self._wake_node(node_id, now)

    def _wake_node(self, node_id: int, now: float) -> None:
        """Unpark every idle slot of ``node_id`` at ``max(free, now)``."""
        state = self._state
        assert state is not None
        parked = state.parked[node_id]
        if not parked:
            return
        for free in parked:
            heapq.heappush(state.heap, (max(free, now), _SLOT, node_id))
        parked.clear()

    def _finish_app(self, app: _AppState, t: float) -> None:
        state = self._state
        assert state is not None
        app.metrics = app.driver._finish_run(t)
        app.finish = t
        # In-flight prefetches are abandoned, exactly as a standalone
        # run ends with transfers still on the wire (the channel time
        # they reserved stays reserved — the I/O physically happened).
        master = app.master
        assert master is not None
        for mgr in master.managers:
            mgr.inflight_prefetch.clear()
        # Teardown: the namespace leaves memory and disk, then the
        # tenant leaves arbitration.  Removal order matters — dropping
        # blocks first keeps on_remove routing to a live tenant.
        lo, hi = namespace_of(app.index)
        master.drop_rdd_range(lo, hi)
        for node in state.nodes:
            composite = node.policy
            assert isinstance(composite, ArbitratedNodePolicy)
            composite.deregister_tenant(app.index)
        app.master = None
        state.active.remove(app)


def simulate_multi_tenant(
    apps: list[AppSpec] | tuple[AppSpec, ...],
    cluster_config: ClusterConfig,
    **kwargs,
) -> MultiTenantMetrics:
    """One-shot convenience wrapper around :class:`MultiTenantSimulator`."""
    return MultiTenantSimulator(apps, cluster_config, **kwargs).run()
