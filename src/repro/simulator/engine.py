"""Event-driven execution engine.

Replays an :class:`ApplicationDAG` on a simulated cluster under a
pluggable :class:`CacheScheme`:

* active stages execute in sequence (stage barrier, like Spark's
  DAGScheduler for a single app);
* within a stage, tasks queue on per-node executor slots and are
  processed in global start-time order, so cache state (insertions,
  evictions, prefetch completions) evolves *during* the stage and is
  observed consistently by later tasks;
* cached-block reads hit memory, wait for an in-flight prefetch, or
  synchronously re-read the spilled copy through the home node's
  serialized disk channel;
* prefetch orders issued at a stage boundary occupy the same disk
  channel and complete asynchronously — the overlap of this I/O with
  computation is exactly the mechanism the paper credits for MRD's
  prefetching gains.

Two interchangeable scheduling cores implement the start-time order
(see ``docs/performance.md``):

* ``"event"`` (default) — :class:`EventLoop`, the one production loop:
  a standalone run is a one-tenant run of it, and the multi-tenant
  engine runs N applications through it on one shared cluster.  It
  orders events and ``(slot_free_time, node_id)`` slots in two heaps;
  each driver keeps a time-ordered prefetch-completion heap.
* ``"reference"`` — the original loops (a ``min()`` over every node per
  task, a scan of every manager's in-flight dict per task), kept as the
  executable specification: the equivalence suite asserts both cores
  produce identical :class:`RunMetrics` on every registered workload,
  and ``benchmarks/test_engine_scale.py`` holds the speedup between
  them above its floors.

Every driver↔worker interaction — purge orders, prefetch orders, table
broadcasts, cache-status reports, worker (de)registration — travels
through a :class:`~repro.control.plane.ControlPlane` as a typed
:mod:`~repro.control.messages` message.  The default ``"instant"``
plane delivers synchronously in send order and reproduces the old
direct-call semantics exactly; the ``"rpc"`` plane delays delivery by
modeled network latency (plus optional jitter and loss), so workers act
on possibly-stale reference-distance state — see the "Control plane"
section of ``docs/architecture.md``.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from collections import deque
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter

from repro.cluster.block import Block, BlockId, block_of
from repro.cluster.block_manager import DISK_READ, MEMORY_HIT, BlockManager
from repro.cluster.cluster import Cluster, ClusterConfig, build_cluster, make_worker
from repro.cluster.node import WorkerNode
from repro.cluster.placement import PLACEMENTS
from repro.cluster.rebalance import RebalancePolicy, build_rebalance
from repro.control.messages import (
    CacheStatusReport,
    ControlMessage,
    PrefetchOrder,
    PurgeOrder,
    StageBoundary,
    WorkerDeregister,
    WorkerRegister,
)
from repro.control.plane import (
    CONTROL_PLANES,
    ControlPlane,
    RpcConfig,
    build_control_plane,
)
from repro.dag.dag_builder import ApplicationDAG
from repro.dag.rdd import RDD, ShuffleDependency
from repro.dag.structures import Stage
from repro.policies.scheme import CacheScheme, StageOrders
from repro.simulator.costmodel import CostModel
from repro.simulator.failures import FailurePlan, NodeJoin
from repro.simulator.metrics import RunMetrics, StageRecord
from repro.trace.events import (
    BlockMigrate,
    JobStart,
    PrefetchCancel,
    PrefetchComplete,
    PrefetchIssue,
    StageEnd,
    StageStart,
    WorkerDeregisterEvent,
    WorkerRegisterEvent,
)
from repro.trace.recorder import NULL_RECORDER, TraceRecorder


class SimulationError(RuntimeError):
    """Internal inconsistency (a referenced block that nowhere exists)."""


#: Scheduling cores understood by :class:`SparkSimulator`.
SCHEDULERS = ("event", "reference")


def _task_slices(rows: list[tuple], num_tasks: int) -> list[tuple]:
    """Task ``p``'s entries: ``row[p::num_tasks]`` of each row, in row
    order.  With no rows every task shares the empty tuple."""
    if not rows:
        return [()] * num_tasks
    return [
        tuple(chain.from_iterable(row[p::num_tasks] for row in rows))
        for p in range(num_tasks)
    ]


class SparkSimulator:
    """Runs one application under one cache-management scheme."""

    def __init__(
        self,
        dag: ApplicationDAG,
        cluster_config: ClusterConfig,
        scheme: CacheScheme,
        cost_model: CostModel | None = None,
        failure_plan: FailurePlan | None = None,
        recorder: TraceRecorder | None = None,
        scheduler: str = "event",
        control_plane: str | ControlPlane = "instant",
        control_config: RpcConfig | None = None,
        placement: str = "stride",
        rebalance: str | RebalancePolicy = "drop",
    ) -> None:
        if scheduler not in SCHEDULERS:
            raise ValueError(
                f"scheduler must be one of {SCHEDULERS}, got {scheduler!r}"
            )
        if isinstance(control_plane, str) and control_plane not in CONTROL_PLANES:
            raise ValueError(
                f"control_plane must be one of {CONTROL_PLANES}, got {control_plane!r}"
            )
        if placement not in PLACEMENTS:
            raise ValueError(
                f"placement must be one of {PLACEMENTS}, got {placement!r}"
            )
        self.dag = dag
        self.cluster_config = cluster_config
        self.scheme = scheme
        self.scheduler = scheduler
        #: Structured-event sink; the shared no-op recorder by default,
        #: so an unrecorded run constructs no event objects at all.
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.cost = cost_model or CostModel(
            network=cluster_config.network,
            disk=cluster_config.disk,
            cpu_speed=cluster_config.cpu_speed,
        )
        self.failure_plan = failure_plan
        #: Partition → node scheme ("stride" legacy, "rendezvous" sticky).
        self.placement = placement
        #: What happens to a decommissioned node's cache (drop/migrate).
        self.rebalance: RebalancePolicy = (
            rebalance
            if isinstance(rebalance, RebalancePolicy)
            else build_rebalance(rebalance)
        )
        self.cluster: Cluster | None = None
        #: The run's control-plane transport (reset at every run start).
        self.control_config = control_config
        self.control: ControlPlane = (
            control_plane
            if isinstance(control_plane, ControlPlane)
            else build_control_plane(
                control_plane, control_config, cluster_config.network
            )
        )
        #: Active-stage seq the driver is currently processing; receiver
        #: callbacks compare it against a message's ``issued_seq`` to
        #: judge staleness.
        self._current_seq = 0
        #: Time-ordered prefetch completions: ``(done, node_id, seq,
        #: block_id)``.  Equal completion times pop in node order, then
        #: issue order (``seq`` is a monotone issue counter, so block ids
        #: are never compared) — the reference core's order.  Entries
        #: are invalidated lazily — a prefetch completed early (a task
        #: waited on it) or cancelled (node failure) no longer matches
        #: the manager's in-flight dict and is dropped on pop.
        self._prefetch_heap: list[tuple[float, int, int, BlockId]] = []
        self._prefetch_seq = 0
        self._unpersist_by_job: dict[int, list[int]] = {}
        for ev in dag.app.ctx.unpersist_events:
            self._unpersist_by_job.setdefault(ev.after_job_id, []).append(ev.rdd.id)
        #: Memoized per-partition recompute costs (failure-recovery path).
        self._recompute_cost: dict[int, float] = {}
        #: One-entry memo of the current stage's compiled task plan
        #: (per-partition read/write lists); plans themselves are cached
        #: by :meth:`_stage_plan`.
        self._plan_stage: Stage | None = None
        self._plan: tuple[list, list, bool] | None = None
        #: Application id stamped on every control message; 0 for the
        #: single-application engine, per-app under the tenancy layer.
        self.app_id = 0
        #: ``RunMetrics.app_id`` value (None marks a standalone run).
        self._metrics_app_id: int | None = None
        # Per-run state initialized by _start_run().
        self._records: list[StageRecord] = []
        self._lost_blocks = 0
        self._current_job = -1
        self._last_seq = 0
        self._t_origin = 0.0
        #: Per-run plans ``(stage.seq, epoch)`` and block rows ``(rdd
        #: id, epoch, is_write)`` for dynamic membership, dropped at the
        #: next run start.  Sticky placement is a function of the run's
        #: membership *history*, so these must never be shared across
        #: runs the way ``dag.engine_plans`` is.
        self._plan_cache: dict[tuple, tuple] = {}
        # Membership churn accounting (all zero for static runs).
        self._membership_changed = False
        self._nodes_joined = 0
        self._nodes_decommissioned = 0
        self._rebalanced_blocks = 0
        self._rebalanced_mb = 0.0
        self._decommission_dropped = 0
        self._live_since: list[float] = []
        self._live_time: list[float] = []

    # ------------------------------------------------------------------
    def run(self) -> RunMetrics:
        """Simulate the whole application; returns the collected metrics.

        Under the event scheduler this is a one-tenant run of the shared
        :class:`EventLoop`: the application arrives alone at 0.0.
        """
        if self.scheduler == "event":
            return EventLoop([self]).run([0.0])[0]
        self._start_run(0.0)
        now = 0.0
        for stage in self.dag.active_stages:
            self._begin_stage(stage, now)
            start = now
            now = self._run_stage_reference(stage, start)
            self._record_stage(stage, start, now)
        return self._finish_run(now)

    # ------------------------------------------------------------------
    # run lifecycle (each phase is a step of EventLoop, which drives one
    # driver standalone or many on a shared cluster)
    # ------------------------------------------------------------------
    def _start_run(self, now: float) -> None:
        """(Re)initialize per-run state; ``now`` is the application's
        start time (0.0 standalone, the arrival time under tenancy)."""
        self.scheme.prepare(self.dag)
        rec = self.recorder
        if rec.enabled:
            rec.now = now
            rec.distance_of = self.scheme.reference_distance
        self.cluster = self._build_cluster()
        self._prefetch_heap = []
        self._prefetch_seq = 0
        self._current_seq = 0
        self._records = []
        self._lost_blocks = 0
        self._current_job = -1
        self._last_seq = 0
        self._t_origin = now
        self._plan_stage = None
        self._plan = None
        self._plan_cache = {}
        self._membership_changed = False
        self._nodes_joined = 0
        self._nodes_decommissioned = 0
        self._rebalanced_blocks = 0
        self._rebalanced_mb = 0.0
        self._decommission_dropped = 0
        self._live_since = [now] * self.cluster.num_nodes
        self._live_time = [0.0] * self.cluster.num_nodes
        for mgr in self.cluster.master.managers:
            # Eviction trace events resolve reference distances through
            # the scheme owning this manager's blocks (correct per-app
            # tables under tenancy, where each app has its own managers).
            mgr.distance_source = self.scheme.reference_distance
        if rec.enabled:
            for mgr in self.cluster.master.managers:
                mgr.recorder = rec
        control = self.control
        control.reset()
        control.recorder = rec
        plan = self.failure_plan
        control.outage_loss = (
            (lambda msg: plan.control_loss(self._current_seq, msg.node_id))
            if plan is not None and plan.outages
            else None
        )
        self._register_workers(now)

    def _build_cluster(self) -> Cluster:
        """Cluster for this run (tenancy overrides with a shared view)."""
        return build_cluster(
            self.cluster_config, self.scheme.policy_factory,
            placement=self.placement,
        )

    def _register_workers(self, now: float) -> None:
        # Initial worker registration is synchronous on every plane:
        # Spark blocks on executor registration before scheduling work.
        for node in self.cluster.nodes:
            self.control.send_local(
                WorkerRegister(sent_at=now, node_id=node.node_id, app_id=self.app_id),
                self._deliver_register,
            )

    def _begin_stage(self, stage: Stage, now: float) -> None:
        """Stage-boundary driver work: job submits, failures, reports,
        control pump, and the scheme's purge/prefetch orders."""
        rec = self.recorder
        control = self.control
        self._current_seq = self._last_seq = stage.seq
        if stage.job_id != self._current_job:
            # Previous jobs finished: apply their unpersist events.
            for j in range(max(self._current_job, 0), stage.job_id):
                self._apply_unpersists(j)
            # Newly submitted jobs reveal their DAGs to the scheme.
            for j in range(self._current_job + 1, stage.job_id + 1):
                self.scheme.on_job_submit(j)
                if rec.enabled:
                    rec.emit(JobStart(t=now, job_id=j))
            self._current_job = stage.job_id
        plan = self.failure_plan
        if plan is not None and plan.elastic:
            # Membership first: a failure scheduled against a node that
            # just decommissioned is skipped by the plan's liveness guard.
            self._apply_memberships(stage, now)
        if plan is not None:
            failed = plan.failures_at(stage.seq)
            self._lost_blocks += plan.apply(stage.seq, self.cluster)
            # The replacement re-registers through the control plane;
            # on (possibly delayed) delivery the driver re-issues the
            # distance-table snapshot (paper §4.4).
            for failure in failed:
                control.send(
                    WorkerDeregister(
                        sent_at=now, node_id=failure.node_id, app_id=self.app_id
                    ),
                    self._deliver_deregister,
                )
                control.send(
                    WorkerRegister(
                        sent_at=now, node_id=failure.node_id,
                        reason="replacement", app_id=self.app_id,
                    ),
                    self._deliver_register,
                )
        # Reports are sent before the pump so a zero-latency rpc
        # plane delivers them (deliver_at == now) before the scheme
        # plans the boundary — exactly the instant plane's ordering.
        self._send_status_reports(now)
        control.pump(now)
        if rec.enabled:
            rec.now = now
            rec.emit(StageStart(
                t=now, seq=stage.seq, stage_id=stage.id,
                job_id=stage.job_id, num_tasks=stage.num_tasks,
            ))
        orders = self.scheme.on_stage_start(stage.seq, self.cluster)
        self._dispatch_stage_orders(stage.seq, orders, now)

    def _record_stage(self, stage: Stage, start: float, end: float) -> None:
        for rdd in stage.cache_writes:
            self.scheme.on_block_created(rdd.id)
        rec = self.recorder
        if rec.enabled:
            rec.now = end
            rec.emit(StageEnd(
                t=end, seq=stage.seq, stage_id=stage.id, job_id=stage.job_id,
            ))
        self._records.append(
            StageRecord(
                seq=stage.seq,
                stage_id=stage.id,
                job_id=stage.job_id,
                start=start,
                end=end,
                num_tasks=stage.num_tasks,
            )
        )

    def _finish_run(self, now: float) -> RunMetrics:
        """Drain the control plane, finalize the scheme, collect metrics.

        JCT is measured from the run's start time, so under tenancy it
        is the application's *sojourn* (completion − arrival)."""
        # Drain messages still in flight when the application ended, so
        # sent == delivered + dropped and late orders are counted stale.
        self._current_seq = self._last_seq + 1
        self.control.pump(math.inf)
        self._apply_unpersists(self._current_job)
        self.scheme.finalize()
        master = self.cluster.master
        # Presence fractions stay empty for static runs, keeping their
        # metrics byte-identical to the pre-elastic engine.
        per_node_presence: list[float] = []
        if self._membership_changed:
            duration = now - self._t_origin
            for i in master.live_node_ids:
                self._live_time[i] += now - self._live_since[i]
                self._live_since[i] = now
            per_node_presence = [
                min(t / duration, 1.0) if duration > 0 else 1.0
                for t in self._live_time
            ]
        return RunMetrics(
            scheme=self.scheme.name,
            workload=self.dag.app.signature,
            jct=now - self._t_origin,
            stats=master.total_stats(),
            stage_records=self._records,
            per_node_hit_ratio=[m.stats.hit_ratio for m in master.managers],
            cache_mb_per_node=self.cluster_config.cache_mb_per_node,
            failure_lost_blocks=self._lost_blocks,
            control_plane=self.control.name,
            control=self.control.stats,
            app_id=self._metrics_app_id,
            arrival_time=self._t_origin,
            nodes_joined=self._nodes_joined,
            nodes_decommissioned=self._nodes_decommissioned,
            rebalanced_blocks=self._rebalanced_blocks,
            rebalanced_mb=self._rebalanced_mb,
            decommission_dropped_blocks=self._decommission_dropped,
            per_node_presence=per_node_presence,
        )

    # ------------------------------------------------------------------
    # elastic membership
    # ------------------------------------------------------------------
    def _apply_memberships(self, stage: Stage, now: float) -> None:
        """Apply the plan's joins and decommissions for this stage."""
        plan = self.failure_plan
        assert plan is not None
        for event in plan.memberships_at(stage.seq):
            if isinstance(event, NodeJoin):
                self._join_node(event.node_id, now)
            else:
                self._decommission_node(event.node_id, now)

    def _join_node(self, node_id: int | None, now: float) -> None:
        """Grow the live set by a fresh node or a decommissioned slot:
        the node enters placement and registers through the §4.4 path."""
        assert self.cluster is not None
        master = self.cluster.master
        if node_id is None:
            node_id = master.num_nodes
        if node_id < master.num_nodes:
            if master.is_live(node_id):
                return  # pinned join of a live node: nothing to do
            node = self.cluster.nodes[node_id]  # a decommissioned slot rejoins
        else:
            node = make_worker(self.cluster_config, node_id, self.scheme.policy_factory)
        mgr = master.add_node(node)
        mgr.distance_source = self.scheme.reference_distance
        rec = self.recorder
        if rec.enabled:
            mgr.recorder = rec
        while len(self._live_time) < master.num_nodes:
            self._live_time.append(0.0)
            self._live_since.append(now)
        self._live_since[node_id] = now
        self._membership_changed = True
        self._nodes_joined += 1
        # Placement moved: drop the current-stage plan memo.
        self._plan_stage = None
        self._plan = None
        # On (possibly delayed) delivery the driver re-issues the current
        # distance table to the new worker, exactly like a replacement.
        self.control.send(
            WorkerRegister(
                sent_at=now, node_id=node_id, reason="join", app_id=self.app_id
            ),
            self._deliver_register,
        )

    def _decommission_node(self, node_id: int | None, now: float) -> None:
        """Shrink the live set, rebalancing the node's cache on the way
        out: the run's :class:`RebalancePolicy` picks which blocks are
        worth copying to their new homes (priced through the
        destination's storage channel), the rest die with the node."""
        assert self.cluster is not None
        master = self.cluster.master
        live = master.live_node_ids
        if node_id is None:
            node_id = live[-1]  # shed the newest node
        if not master.is_live(node_id) or len(live) <= 1:
            return  # already gone, or the last live node must stay
        mgr = master.managers[node_id]
        node = master.nodes[node_id]
        resident = list(node.memory.blocks())
        rec = self.recorder
        if rec.enabled:
            rec.now = now
        # In-flight prefetches die with the node.
        for bid in list(mgr.inflight_prefetch):
            mgr.cancel_inflight(bid, reason="decommissioned")
        master.decommission_node(node_id)  # placement now excludes the node
        selected = self.rebalance.select(
            resident, lambda b: self.scheme.reference_distance(b.id.rdd_id)
        )
        network = self.cost.network
        for block in selected:
            dest_id = master.home_node_id(block.id)
            dest = master.managers[dest_id]
            # The copy crosses the network and lands through the
            # destination's serialized storage channel, delaying that
            # node's subsequent disk reads and prefetches — migration
            # is priced, not free.
            dest.node.io_free_at = (
                max(dest.node.io_free_at, now) + network.transfer_time(block.size_mb)
            )
            dest.insert_cached(block)
            self._rebalanced_blocks += 1
            self._rebalanced_mb += block.size_mb
            if rec.enabled:
                rec.emit(BlockMigrate(
                    t=now, rdd_id=block.id.rdd_id, partition=block.id.partition,
                    from_node=node_id, to_node=dest_id, size_mb=block.size_mb,
                ))
        self._decommission_dropped += len(resident) - len(selected)
        self._live_time[node_id] += now - self._live_since[node_id]
        self._membership_changed = True
        self._nodes_decommissioned += 1
        self._plan_stage = None
        self._plan = None
        self.control.send(
            WorkerDeregister(
                sent_at=now, node_id=node_id,
                reason="decommission", app_id=self.app_id,
            ),
            self._deliver_deregister,
        )
        node.clear()  # the node's stores leave with it

    # ------------------------------------------------------------------
    # stage execution
    # ------------------------------------------------------------------
    def _stage_costs(self, stage: Stage) -> list[float]:
        """Cache-independent per-node task cost: I/O shares are
        cluster-wide, compute scales with the node's CPU factor."""
        fixed_io = (
            self.cost.task_overhead_s
            + self.cost.shuffle_read_time(stage)
            + self.cost.input_read_time(stage)
        )
        base_compute = self.cost.compute_time(stage)
        return [
            fixed_io + base_compute / node.cpu_factor for node in self.cluster.nodes
        ]

    def _pending_by_node(self, stage: Stage) -> Sequence[Sequence[int]]:
        """Each node's task partitions, ascending (locality-aligned)."""
        master = self.cluster.master
        return master.placement.tasks_by_node(stage.num_tasks, master.num_nodes)

    def _run_closed_stage(
        self,
        stage: Stage,
        tasks: Sequence[Sequence[int]],
        per_node_fixed: list[float],
        start: float,
    ) -> float | None:
        """Closed form of :class:`EventLoop` for a fixed-cost stage:
        returns the stage's end, or ``None`` to decline.

        The loop calls it only while the stage's application runs alone
        with no arrival pending, so every slot of a busy node is free
        at ``start`` and nothing else competes for it.
        Three kinds of stage qualify, because each of their tasks ends
        exactly ``fixed`` after it starts:

        * a *cache-inert* stage reads and writes no cached block;
        * a *hit-only* stage writes none, and every read is homed on the
          task's node, memory-resident there and not in flight;
        * a *write-only* stage reads none, and every write is homed on
          the task's node.

        A node's slots therefore run in lockstep waves.  A node with k
        tasks and s slots runs ⌈k/s⌉ waves starting at the chain
        ``start, start + f, (start + f) + f, …`` — repeated addition,
        exactly as the loop accumulates ``t_end = t0 + fixed``, so the
        floats are identical — and the stage ends at the latest chain
        end.

        What the loop would still do mid-stage is apply control
        deliveries and prefetch completions before each task start.  In
        an inert stage each due head is applied at the first task start
        at or after it (a bisect per node's chain), with the loop's
        pump-then-apply order; neither step leaves anything due at that
        start, so the next head is strictly later.

        A hit-only or write-only stage declines instead when any head is
        due by its last wave start (a delivery or completion could
        purge, evict or insert between two of its reads or writes), and
        when the run is recorded (each event carries its task's time).
        With nothing applied mid-stage its cache state changes only
        through its own reads or writes, each on the task's own node,
        so every node's ``access`` or ``insert_cached`` calls are made
        in the node's task order, plan order within a task — the order
        its slots run them in.  Every block is checked before any call
        is made.  A stage that both reads and writes declines: a write
        may evict a block that a later task on the node reads.
        """
        reads = bool(stage.cache_reads)
        inert = not reads and not stage.cache_writes
        if not inert and (
            (reads and stage.cache_writes) or self.recorder.enabled
        ):
            return None
        nodes = self.cluster.nodes
        # One chain per busy node: its wave starts, then its end.
        chains: list[list[float]] = []
        stage_end = start
        last_start = -math.inf
        for node_id, partitions in enumerate(tasks):
            if not partitions:
                continue
            fixed = per_node_fixed[node_id]
            chain = [start]
            t = start
            for _ in range(-(-len(partitions) // nodes[node_id].num_slots)):
                t = t + fixed
                chain.append(t)
            chains.append(chain)
            stage_end = max(stage_end, t)
            last_start = max(last_start, chain[-2])

        control = self.control
        control_heap = control.heap
        prefetch_heap = self._prefetch_heap
        while True:
            due = min(
                control_heap[0][0] if control_heap else math.inf,
                prefetch_heap[0][0] if prefetch_heap else math.inf,
            )
            if due > last_start:
                break
            if not inert:
                return None
            # Chain index -1 is the chain's end, not a task start.
            t0 = min(
                chain[i]
                for chain in chains
                if (i := bisect_left(chain, due, 0, len(chain) - 1)) < len(chain) - 1
            )
            if control_heap and control_heap[0][0] <= t0:
                control.pump(t0)
            if prefetch_heap and prefetch_heap[0][0] <= t0:
                self._apply_due_prefetches(t0)
        if inert:
            return stage_end

        # Hit-only or write-only: each node's plan entries in task order.
        task_reads, task_writes, _ = self._stage_plan(stage)
        plan = task_reads if reads else task_writes
        managers = self.cluster.master.managers
        per_node = [
            (node_id, managers[node_id], [e for p in partitions for e in plan[p]])
            for node_id, partitions in enumerate(tasks)
            if partitions
        ]
        for node_id, mgr, entries in per_node:
            if reads:
                memory = mgr.node.memory
                inflight = mgr.inflight_prefetch
                for bid, home, _ in entries:
                    if home != node_id or bid not in memory or bid in inflight:
                        return None
            elif any(home != node_id for _, home in entries):
                return None
        for _, mgr, entries in per_node:
            if reads:
                access = mgr.access
                for bid, _, _ in entries:
                    access(bid)
            else:
                insert = mgr.insert_cached
                for block, _ in entries:
                    insert(block, set())
        return stage_end

    def _run_stage_reference(self, stage: Stage, start: float) -> float:
        """Reference core: per-node slot heaps + a ``min()`` over all
        nodes per task — O(tasks × nodes), the executable specification
        the event core is verified against."""
        master = self.cluster.master
        num_nodes = master.num_nodes
        per_node_fixed = self._stage_costs(stage)
        # Per-task placement, deliberately not ``_pending_by_node``: this
        # grouping is the spec ``PlacementPolicy.tasks_by_node`` is
        # checked against.
        pending: list[deque[int]] = [deque() for _ in range(num_nodes)]
        for p in range(stage.num_tasks):
            pending[master.task_node_id(p)].append(p)
        slots: list[list[float]] = [
            [start] * node.num_slots for node in self.cluster.nodes
        ]
        for heap in slots:
            heapq.heapify(heap)

        stage_end = start
        remaining = stage.num_tasks
        while remaining:
            # Next task = node with pending work whose earliest slot frees first.
            node_id = min(
                (n for n in range(num_nodes) if pending[n]),
                key=lambda n: slots[n][0],
            )
            t0 = heapq.heappop(slots[node_id])
            self.control.pump(t0)
            self._apply_due_prefetches(t0)
            p = pending[node_id].popleft()
            t_end = self._run_task(stage, p, node_id, t0, per_node_fixed[node_id])
            heapq.heappush(slots[node_id], t_end)
            stage_end = max(stage_end, t_end)
            remaining -= 1
        return stage_end

    def _stage_plan(self, stage: Stage) -> tuple[list, list, bool]:
        """Compiled per-partition block plan for one stage.

        Reads stride partitions exactly like writes: task ``p`` of a
        T-task stage touches blocks ``p, p+T, p+2T, …`` of every read
        RDD, so a stage with fewer tasks than an input RDD has
        partitions still accesses (and accounts) the tail partitions.
        The plan resolves block ids, home-node indices and sizes once
        instead of rebuilding ``BlockId``/``Block`` objects inside every
        task.  Plans and the per-RDD block rows they are cut from (see
        :meth:`_compile_plan`) share one cache and one scope:

        * while membership is static, ``dag.engine_plans`` under the
          cluster size, so repeated runs of the DAG (sweep cells,
          benchmark repeats) skip replanning; the plans live as long as
          the DAG (a multi-tenant application's DAG, and with it its
          plans, goes when :class:`EventLoop` drops the finished driver);
        * once membership changed (or under sticky placement, which
          depends on this run's membership *history*), the per-run
          ``_plan_cache`` under the membership epoch: such plans would
          poison other runs on the shared DAG.
        """
        master = self.cluster.master
        if master.static_members:
            cache, scope = self.dag.engine_plans, master.num_nodes
        else:
            cache, scope = self._plan_cache, master.epoch
        plan = cache.get((stage.seq, scope))
        if plan is None:
            plan = cache[stage.seq, scope] = self._compile_plan(stage, cache, scope)
        return plan

    def _compile_plan(
        self, stage: Stage, cache: dict, scope: int
    ) -> tuple[list, list, bool]:
        """Cut one stage's plan from per-RDD block rows.

        A block is named by ``(rdd, partition)`` alone, so one row per
        cached RDD — an entry for every partition ``q`` — serves every
        stage that reads or writes it; task ``p`` of a T-task stage gets
        ``row[p::T]`` of each RDD, joined in ``cache_reads`` /
        ``cache_writes`` order.  Rows are cached beside the plans under
        ``(rdd id, scope, is_write)``.
        """
        num_tasks = stage.num_tasks
        reads = _task_slices(
            [self._block_row(rdd, False, cache, scope) for rdd in stage.cache_reads],
            num_tasks,
        )
        writes = _task_slices(
            [self._block_row(rdd, True, cache, scope) for rdd in stage.cache_writes],
            num_tasks,
        )
        return (reads, writes, bool(stage.cache_writes))

    def _block_row(self, rdd: RDD, write: bool, cache: dict, scope: int) -> tuple:
        """``rdd``'s read entries ``(block id, home, size)`` or write
        entries ``(block, home)``, one per partition."""
        key = (rdd.id, scope, write)
        row = cache.get(key)
        if row is None:
            place = self.cluster.master.placement.place
            partitions = range(rdd.num_partitions)
            if write:
                row = tuple((block_of(rdd, q), place(q)) for q in partitions)
            else:
                size = rdd.partition_size_mb
                row = tuple((BlockId(rdd.id, q), place(q), size) for q in partitions)
            cache[key] = row
        return row

    def _run_task(
        self, stage: Stage, partition: int, node_id: int, t0: float, fixed: float
    ) -> float:
        assert self.cluster is not None
        plan = self._plan
        if plan is None or stage is not self._plan_stage:
            plan = self._stage_plan(stage)
            self._plan = plan
            self._plan_stage = stage
        reads, writes, has_writes = plan
        managers = self.cluster.master.managers
        t = t0 + fixed
        protect: set[BlockId] = set()

        task_reads = reads[partition]
        if task_reads:
            acquire = self._acquire_block
            remote = self.cost.remote_transfer_time
            for bid, home, size in task_reads:
                mgr = managers[home]
                t = acquire(mgr, bid, size, t, protect)
                if home != node_id:
                    t += remote(size)
                protect.add(bid)

        if has_writes:
            if self.recorder.enabled:
                self.recorder.now = t
            for block, home in writes[partition]:
                managers[home].insert_cached(block, protect)
        return t

    def _acquire_block(
        self,
        mgr: BlockManager,
        bid: BlockId,
        size_mb: float,
        t: float,
        protect: set[BlockId],
    ) -> float:
        """Make ``bid`` readable at the returned time; accounts hit/miss."""
        if self.recorder.enabled:
            self.recorder.now = t
        inflight = mgr.inflight_prefetch.get(bid)
        if inflight is not None:
            # Wait for the in-flight prefetch, then complete it.  Even
            # if cache admission refuses the block, the transfer already
            # happened — the task consumes it from the fetch buffer.
            t = max(t, inflight)
            self._complete_prefetch(mgr, bid)
            if bid in mgr.node.memory:
                mgr.access(bid)
            else:
                mgr.record_buffered_hit(bid)
            return t
        outcome = mgr.access(bid)
        if outcome is MEMORY_HIT:
            return t
        if outcome is DISK_READ:
            t = mgr.node.reserve_io(t, size_mb)
            block = mgr.node.disk.get(bid)
            assert block is not None
            mgr.promote_from_disk(block, protect)
            return t
        # Neither in memory nor on disk.  Without failure injection or
        # membership churn this is a DAG-contract violation; with lost
        # disks or decommissioned nodes it is Spark's lineage-recovery
        # path: recompute the partition and re-persist.  (Tenancy churn
        # arrives outside any failure plan, hence the second gate.)
        if self.failure_plan is None and not self._membership_changed:
            raise SimulationError(
                f"block {bid} referenced but neither in memory nor on disk "
                f"on node {mgr.node.node_id}"
            )
        return self._recompute_block(mgr, bid, size_mb, t, protect)

    def _recompute_block(
        self,
        mgr: BlockManager,
        bid: BlockId,
        size_mb: float,
        t: float,
        protect: set[BlockId],
    ) -> float:
        """Lineage recovery: rebuild a lost partition and re-persist it.

        The cost approximates recomputing the narrow pipeline above the
        RDD: CPU for every narrow ancestor, a storage read for input
        ancestors and a network fetch for each crossed shuffle (shuffle
        files survive node loss on the paper's clusters because they are
        spread over all nodes).
        """
        rdd = self.dag.app.rdd_by_id(bid.rdd_id)
        t += self._partition_recompute_time(rdd)
        block = Block(id=bid, size_mb=size_mb, rdd_name=rdd.name)
        # Re-persist through the manager so recovery-driven insertions
        # and the evictions they force are counted, recorded, and kept
        # consistent with the prefetched-unread bookkeeping.
        if self.recorder.enabled:
            self.recorder.now = t
        mgr.insert_cached(block, protect)
        return t

    def _partition_recompute_time(self, rdd: RDD) -> float:
        cached = self._recompute_cost.get(rdd.id)
        if cached is not None:
            return cached
        cpu = 0.0
        io = 0.0
        for ancestor in rdd.narrow_ancestors():
            cpu += ancestor.compute_cost
            if ancestor.is_input:
                io += self.cost.disk.read_time(ancestor.partition_size_mb)
            for dep in ancestor.deps:
                if isinstance(dep, ShuffleDependency):
                    share = dep.parent.size_mb / max(ancestor.num_partitions, 1)
                    io += self.cost.network.transfer_time(share)
        total = cpu / self.cost.cpu_speed + io
        self._recompute_cost[rdd.id] = total
        return total

    # ------------------------------------------------------------------
    # control-plane dispatch and delivery
    # ------------------------------------------------------------------
    def _dispatch_stage_orders(
        self, seq: int, orders: StageOrders, now: float
    ) -> None:
        """Turn a scheme's stage-boundary orders into control messages.

        Send order (which under instant is also apply order, matching
        the old direct-call path exactly): the table broadcast first —
        workers must evict against post-advance distances — then purge
        orders fanned out one message per (rdd, node) in node order,
        then prefetch orders in the scheme's selection order.
        """
        assert self.cluster is not None
        control = self.control
        master = self.cluster.master
        snap = orders.table_snapshot
        if snap is not None:
            self._send_table(master.live_node_ids, seq, snap, now)
        for rdd_id in orders.purge_rdds:
            for node_id in master.live_node_ids:
                control.send(
                    PurgeOrder(
                        sent_at=now, node_id=node_id, rdd_id=rdd_id,
                        issued_seq=seq, app_id=self.app_id,
                    ),
                    self._deliver_purge,
                )
        for block in orders.prefetches:
            control.send(
                PrefetchOrder(
                    sent_at=now,
                    node_id=master.home_node_id(block.id),
                    rdd_id=block.id.rdd_id,
                    partition=block.id.partition,
                    size_mb=block.size_mb,
                    rdd_name=block.rdd_name,
                    issued_seq=seq,
                    app_id=self.app_id,
                ),
                self._deliver_prefetch,
            )

    def _send_status_reports(self, now: float) -> None:
        """Every worker reports its cache status (``reportCacheStatus``).

        Sent before ``on_stage_start`` each boundary: under rpc the
        report lands a boundary late and the driver plans on stale data.
        A synchronous plane would deliver each report at once with live
        values, which is what the manager reads when it holds no report,
        so under one no report is built; the plane only books them.
        """
        control = self.control
        live = self.cluster.master.live_managers()
        if control.synchronous:
            control.deliver_direct(len(live))
            return
        for mgr in live:
            node = mgr.node
            control.send(
                CacheStatusReport(
                    sent_at=now,
                    node_id=node.node_id,
                    used_mb=node.memory.used_mb,
                    free_mb=node.memory.free_mb,
                    hit_ratio=mgr.stats.hit_ratio,
                    num_blocks=len(node.memory),
                    app_id=self.app_id,
                ),
                self._deliver_status,
            )

    def _deliver_status(self, msg: ControlMessage, t: float) -> bool:
        assert isinstance(msg, CacheStatusReport)
        self.scheme.on_cache_status(msg)
        return False  # out-of-order reports are ignored, not stale-counted

    def _deliver_purge(self, msg: ControlMessage, t: float) -> bool:
        assert isinstance(msg, PurgeOrder)
        # Stale when the RDD's distance turned finite again after the
        # order was issued (new references resurrected it, ad-hoc mode):
        # the worker refuses to purge live data.
        dist = self.scheme.reference_distance(msg.rdd_id)
        if dist is not None and not math.isinf(dist):
            return True
        rec = self.recorder
        if rec.enabled:
            rec.now = t
        assert self.cluster is not None
        self.cluster.master.purge_rdd_on(
            msg.node_id, msg.rdd_id, drop_disk=msg.drop_disk
        )
        return False

    def _deliver_prefetch(self, msg: ControlMessage, t: float) -> bool:
        assert isinstance(msg, PrefetchOrder)
        block = Block(
            id=BlockId(msg.rdd_id, msg.partition),
            size_mb=msg.size_mb,
            rdd_name=msg.rdd_name,
        )
        # A late order (its boundary already passed) is stale but still
        # attempted: the block may serve a later stage.
        stale = self._current_seq > msg.issued_seq
        self._issue_one_prefetch(block, t)
        return stale

    def _send_table(
        self, node_ids: Sequence[int], seq: int, distances: Mapping[int, float],
        now: float,
    ) -> None:
        """Broadcast the distance table to ``node_ids``, in order.

        A synchronous plane applies it with one direct call per node —
        exactly the delivery a sent message would get — and books the
        deliveries; any other plane sends one ``StageBoundary`` each.
        """
        control = self.control
        if control.synchronous:
            stale = 0
            for node_id in node_ids:
                stale += self._apply_table(node_id, seq, distances)
            control.deliver_direct(len(node_ids), stale)
            return
        for node_id in node_ids:
            control.send(
                StageBoundary(
                    sent_at=now, node_id=node_id, seq=seq,
                    distances=distances, app_id=self.app_id,
                ),
                self._deliver_table,
            )

    def _deliver_table(self, msg: ControlMessage, t: float) -> bool:
        assert isinstance(msg, StageBoundary)
        return self._apply_table(msg.node_id, msg.seq, msg.distances)

    def _apply_table(
        self, node_id: int, seq: int, distances: Mapping[int, float]
    ) -> bool:
        """Hand a table broadcast to ``node_id``'s eviction policy;
        returns whether it was stale (older than the view held)."""
        assert self.cluster is not None
        applied = self.cluster.nodes[node_id].policy.on_table_update(seq, distances)
        return applied is False

    def _deliver_register(self, msg: ControlMessage, t: float) -> bool:
        assert isinstance(msg, WorkerRegister)
        rec = self.recorder
        if rec.enabled and msg.reason != "startup":
            # Startup registrations are not traced: they happen the same
            # way in every run, before simulated time starts.
            rec.now = t
            rec.emit(WorkerRegisterEvent(t=t, node_id=msg.node_id, reason=msg.reason))
        # Fault-tolerance story (§4.4): the driver re-issues its current
        # distance table to the (re-)registered worker.
        snap = self.scheme.table_snapshot()
        if snap is not None:
            self._send_table((msg.node_id,), self._current_seq, snap, t)
        return False

    def _deliver_deregister(self, msg: ControlMessage, t: float) -> bool:
        assert isinstance(msg, WorkerDeregister)
        rec = self.recorder
        if rec.enabled:
            rec.now = t
            rec.emit(WorkerDeregisterEvent(
                t=t, node_id=msg.node_id, reason=msg.reason,
            ))
        self.scheme.on_worker_deregister(msg.node_id)
        return False

    # ------------------------------------------------------------------
    # prefetching
    # ------------------------------------------------------------------
    def _issue_one_prefetch(self, block: Block, now: float) -> None:
        assert self.cluster is not None
        mgr = self.cluster.master.manager_for(block.id)
        if block.id in mgr.node.memory or block.id in mgr.inflight_prefetch:
            return
        if block.id not in mgr.node.disk:
            return  # nothing to fetch from (defensive)
        done = mgr.node.reserve_io(now, block.size_mb)
        mgr.inflight_prefetch[block.id] = done
        self._prefetch_seq += 1
        heapq.heappush(
            self._prefetch_heap,
            (done, mgr.node.node_id, self._prefetch_seq, block.id),
        )
        mgr.stats.prefetches_issued += 1
        rec = self.recorder
        if rec.enabled:
            rec.emit(PrefetchIssue(
                t=now, rdd_id=block.id.rdd_id, partition=block.id.partition,
                node_id=mgr.node.node_id, size_mb=block.size_mb, eta=done,
            ))

    def _apply_due_prefetches(self, t: float) -> None:
        assert self.cluster is not None
        if self.scheduler == "reference":
            # Completion-time order; the stable sort keeps node order,
            # then issue order (in-flight dicts are insertion-ordered),
            # for equal times.
            due = [
                (done, mgr, bid)
                for mgr in self.cluster.master.managers
                if mgr.inflight_prefetch
                for bid, done in mgr.inflight_prefetch.items()
                if done <= t
            ]
            due.sort(key=itemgetter(0))
            for _, mgr, bid in due:
                self._complete_prefetch(mgr, bid)
            return
        heap = self._prefetch_heap
        managers = self.cluster.master.managers
        while heap and heap[0][0] <= t:
            done, node_id, _, bid = heapq.heappop(heap)
            mgr = managers[node_id]
            # Lazy invalidation: skip entries whose transfer was already
            # consumed by a waiting task or cancelled by a node failure.
            if mgr.inflight_prefetch.get(bid) == done:
                self._complete_prefetch(mgr, bid)

    def _complete_prefetch(self, mgr: BlockManager, bid: BlockId) -> None:
        done = mgr.inflight_prefetch.pop(bid, None)
        block = mgr.node.disk.get(bid)
        rec = self.recorder
        if rec.enabled and done is not None:
            rec.now = done
        if block is None:
            # Unpersisted while in flight: the transfer is abandoned.
            if rec.enabled:
                rec.emit(PrefetchCancel(
                    t=rec.now, rdd_id=bid.rdd_id, partition=bid.partition,
                    node_id=mgr.node.node_id, reason="unpersisted",
                ))
            return
        admitted = mgr.promote_from_disk(block, prefetch=True)
        if rec.enabled:
            rec.emit(PrefetchComplete(
                t=rec.now, rdd_id=bid.rdd_id, partition=bid.partition,
                node_id=mgr.node.node_id, admitted=admitted,
            ))

    # ------------------------------------------------------------------
    def _apply_unpersists(self, job_id: int) -> None:
        assert self.cluster is not None
        for rdd_id in self._unpersist_by_job.get(job_id, ()):
            self.cluster.master.purge_rdd(rdd_id, drop_disk=True)


#: Event kinds of :class:`EventLoop`, in their tie order at equal times:
#: finish/advance stages, then admit new applications.  Slot frees come
#: after every event.
BARRIER, ARRIVAL = 0, 1


@dataclass(eq=False)
class AppRun:
    """One application's position in :class:`EventLoop`.

    Once the application finishes, the loop deletes ``driver`` and
    empties ``stages``: a finished run keeps ``index``, ``finish`` and
    ``metrics``.
    """

    index: int
    driver: SparkSimulator = field(repr=False)
    stages: list[Stage] = field(repr=False)
    finish: float = 0.0
    stage_idx: int = 0
    #: Task batches of the current stage still queued.
    remaining: int = 0
    stage_start: float = 0.0
    stage_end: float = 0.0
    metrics: RunMetrics | None = None


class EventLoop:
    """The scheduling loop: applications' stages on shared executor slots.

    ``drivers`` are the applications, indexed by position; a standalone
    run passes one.  All of them must build their clusters over one
    shared node list (the multi-tenant engine's facades do); the loop
    gives each node a task queue and idle slots as the list grows.

    The event heap holds ``(t, kind, key)``: stage barriers and
    arrivals (``key`` is the application index).  The slot heap holds
    ``(free_time, node_id)``; at equal times slots come after every
    event.  Tasks of every application queue FIFO per node in batches
    ``[app, stage, fixed_cost, partitions]``.  A slot that finds no work
    parks; the next batch queued on its node wakes it at the queueing
    time or later.  No slot in the heap is behind an unhandled event, so none
    reaches a batch before the time it was queued.

    A popped slot *runs until preempted*: it runs its node's next task
    at ``t_end`` unless an event is due by then or another slot is
    ahead of ``(t_end, node_id)``; while the slot heap leads, the next
    slot is popped inline.  Before each task, every active
    application's due control deliveries, then its due prefetch
    completions, are applied in arrival order.  A lone application's
    stage whose tasks all last exactly their node's fixed cost — one
    that is cache-inert, hit-only or write-only — runs in closed form
    instead, without the slot heap
    (:meth:`SparkSimulator._run_closed_stage`).

    ``on_finish(app, t)`` runs after an application's metrics are
    collected (the multi-tenant engine tears its tenant down there).
    Then the loop drops the finished driver and its stage list, so an
    application's DAG, scheme, control plane and block managers are
    freed as it leaves, not when the stream ends; a standalone
    ``run()`` keeps its own driver through its caller.
    """

    def __init__(
        self,
        drivers: Sequence[SparkSimulator],
        on_finish: Callable[[AppRun, float], None] | None = None,
    ) -> None:
        self.apps = [
            AppRun(index, driver, list(driver.dag.active_stages))
            for index, driver in enumerate(drivers)
        ]
        #: Arrived, unfinished applications in arrival order.
        self.active: list[AppRun] = []
        #: The drivers' shared node list, bound at the first arrival.
        self.nodes: Sequence[WorkerNode] = ()
        self.events: list[tuple[float, int, int]] = []
        self.slots: list[tuple[float, int]] = []
        self.queues: list[deque[list]] = []
        #: Free times of idle executor slots, per node.
        self.parked: list[list[float]] = []
        #: Per active application: (control plane, its delivery heap,
        #: the driver's prefetch heap, the driver's completion step).
        self._pumps: list[tuple[ControlPlane, list, list, Callable]] = []
        self._on_finish = on_finish

    def run(self, arrivals: Sequence[float]) -> list[RunMetrics]:
        """Run to completion: application ``i`` arrives at ``arrivals[i]``.
        Returns each application's metrics."""
        events = self.events
        for app, t in zip(self.apps, arrivals):
            heapq.heappush(events, (t, ARRIVAL, app.index))
        slots = self.slots
        while events or slots:
            if slots and (not events or slots[0][0] < events[0][0]):
                self._run_slots()
                continue
            t, kind, key = heapq.heappop(events)
            if kind == BARRIER:
                self._on_barrier(self.apps[key], t)
            else:
                self._on_arrival(self.apps[key], t)
        metrics: list[RunMetrics] = []
        for app in self.apps:
            assert app.metrics is not None
            metrics.append(app.metrics)
        return metrics

    # ------------------------------------------------------------------
    def _on_arrival(self, app: AppRun, t: float) -> None:
        self.active.append(app)
        driver = app.driver
        driver._start_run(t)
        assert driver.cluster is not None
        self.nodes = driver.cluster.nodes
        # Both heaps are stable objects from here on (mutated in place).
        control = driver.control
        self._pumps.append(
            (control, control.heap, driver._prefetch_heap, driver._apply_due_prefetches)
        )
        self._start_stage(app, t)

    def _on_barrier(self, app: AppRun, t: float) -> None:
        app.driver._record_stage(app.stages[app.stage_idx], app.stage_start, t)
        app.stage_idx += 1
        self._start_stage(app, t)

    def _finish(self, app: AppRun, t: float) -> None:
        app.metrics = app.driver._finish_run(t)
        app.finish = t
        index = self.active.index(app)
        del self.active[index]
        del self._pumps[index]
        if self._on_finish is not None:
            self._on_finish(app, t)
        del app.driver
        app.stages = []

    def _start_stage(self, app: AppRun, now: float) -> None:
        """Begin ``app``'s next stage and queue its tasks, or finish.

        While ``app`` runs alone with no event pending, the stage is
        first offered to the closed form; its tasks queue only if that
        declines."""
        if app.stage_idx == len(app.stages):
            self._finish(app, now)
            return
        stage = app.stages[app.stage_idx]
        driver = app.driver
        driver._begin_stage(stage, now)
        self._sync_nodes(now)
        app.remaining = 0
        app.stage_start = app.stage_end = now
        if not stage.num_tasks:
            heapq.heappush(self.events, (now, BARRIER, app.index))
            return
        fixed = driver._stage_costs(stage)
        tasks = driver._pending_by_node(stage)
        if len(self.active) == 1 and not self.events:
            end = driver._run_closed_stage(stage, tasks, fixed, now)
            if end is not None:
                app.stage_end = end
                heapq.heappush(self.events, (end, BARRIER, app.index))
                return
        queues = self.queues
        for node_id, partitions in enumerate(tasks):
            if partitions:
                queues[node_id].append([app, stage, fixed[node_id], deque(partitions)])
                app.remaining += 1
                self._wake(node_id, now)

    def _sync_nodes(self, now: float) -> None:
        """Give every node that joined since the last call a queue and
        idle slots."""
        nodes = self.nodes
        parked = self.parked
        while len(parked) < len(nodes):
            parked.append([now] * nodes[len(parked)].num_slots)
            self.queues.append(deque())

    def _wake(self, node_id: int, now: float) -> None:
        """Unpark every idle slot of ``node_id`` at ``max(free, now)``."""
        parked = self.parked[node_id]
        for free in parked:
            heapq.heappush(self.slots, (max(free, now), node_id))
        parked.clear()

    def _next_due(self) -> float:
        """Earliest pending delivery or completion of any active app."""
        due = math.inf
        for _, control_heap, prefetch_heap, _ in self._pumps:
            if control_heap and control_heap[0][0] < due:
                due = control_heap[0][0]
            if prefetch_heap and prefetch_heap[0][0] < due:
                due = prefetch_heap[0][0]
        return due

    def _run_slots(self) -> None:
        """Run slots, each until preempted, while the slot heap leads
        the event heap."""
        events = self.events
        slots = self.slots
        queues = self.queues
        parked = self.parked
        pumps = self._pumps
        heappop, heappush = heapq.heappop, heapq.heappush
        # Only a pump round changes the delivery and completion heaps
        # while slots run, so their earliest head is kept between rounds.
        due = self._next_due()
        t0, node_id = heappop(slots)
        while True:
            queue = queues[node_id]
            if queue:
                app, stage, fixed, partitions = queue[0]
                if due <= t0:
                    # Control deliveries first: a delivered prefetch
                    # order may push an already-due completion.
                    for control, control_heap, prefetch_heap, apply_due in pumps:
                        if control_heap and control_heap[0][0] <= t0:
                            control.pump(t0)
                        if prefetch_heap and prefetch_heap[0][0] <= t0:
                            apply_due(t0)
                    due = self._next_due()
                t0 = app.driver._run_task(stage, partitions.popleft(), node_id, t0, fixed)
                if t0 > app.stage_end:
                    app.stage_end = t0
                if not partitions:
                    queue.popleft()
                    app.remaining -= 1
                    if not app.remaining:
                        heappush(events, (app.stage_end, BARRIER, app.index))
                slot = (t0, node_id)
                if not events or events[0][0] > t0:
                    if not slots or slot <= slots[0]:
                        continue  # this slot still leads: run its next task
                    t0, node_id = heapq.heapreplace(slots, slot)
                    continue
                heappush(slots, slot)
            else:
                parked[node_id].append(t0)
            if not slots or (events and events[0][0] <= slots[0][0]):
                return
            t0, node_id = heappop(slots)


def simulate(
    dag: ApplicationDAG,
    cluster_config: ClusterConfig,
    scheme: CacheScheme,
    **kwargs,
) -> RunMetrics:
    """One-shot convenience wrapper around :class:`SparkSimulator`."""
    return SparkSimulator(dag, cluster_config, scheme, **kwargs).run()
