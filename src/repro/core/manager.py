"""MRDmanager: the centralized brain of the MRD policy.

Owns the :class:`MrdTable`, advances it at every stage boundary,
detects RDDs whose reference distance reached infinity (→ cluster-wide
purge orders, Algorithm 1 lines 13–17) and selects prefetch targets per
node (lines 24–29): lowest finite distance first, fetched when the
block fits in free memory or when free memory exceeds the configured
threshold (25 % of cache in the paper, which may force the eviction of
the largest-distance blocks).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING

from repro.cluster.block import Block, BlockId
from repro.cluster.cluster import Cluster
from repro.core.app_profiler import AppProfiler
from repro.core.mrd_table import INFINITE, MrdTable
from repro.dag.dag_builder import ApplicationDAG

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.memory_store import MemoryStore
    from repro.control.messages import CacheStatusReport


@dataclass(frozen=True)
class MrdConfig:
    """Tunable knobs of the MRD policy.

    ``metric``: "stage" (paper default) or "job" (Fig. 8 ablation).
    ``prefetch_threshold``: free-memory fraction above which prefetching
    may force evictions (paper: 0.25).
    ``adaptive_threshold``: make the threshold dynamic — the paper's
    declared future work ("modifying the prefetching memory threshold
    to be dynamic and automated", §6).  The controller raises the
    threshold (more conservative) when recent prefetches go unused and
    lowers it when they are consumed.
    ``max_prefetch_per_node``: implementation bound on prefetch orders
    issued per node per stage boundary, so the aggressive policy cannot
    queue unbounded disk traffic.
    ``eager_purge``: issue all-out purge orders for dead RDDs instead of
    waiting for memory pressure (paper behaviour; ablation flag).
    ``guarded_prefetch``: only force an eviction for a prefetch when the
    incoming block's distance beats the victim's (the paper leaves this
    check as future work and ships without it).
    """

    metric: str = "stage"
    prefetch_threshold: float = 0.25
    adaptive_threshold: bool = False
    max_prefetch_per_node: int = 8
    eager_purge: bool = True
    guarded_prefetch: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.prefetch_threshold <= 1.0:
            raise ValueError("prefetch_threshold must be in [0, 1]")
        if self.max_prefetch_per_node < 0:
            raise ValueError("max_prefetch_per_node must be non-negative")


class AdaptiveThresholdController:
    """Waste-driven controller for the prefetch memory threshold.

    Each stage boundary it looks at the prefetches completed since the
    last boundary: a high unused fraction means the aggressive policy is
    churning the cache, so the free-memory bar is raised; near-complete
    consumption lowers it.  Bounded multiplicative steps keep the
    threshold stable (AIMD-flavoured, like TCP's congestion window).
    """

    def __init__(
        self,
        initial: float = 0.25,
        lo: float = 0.02,
        hi: float = 0.9,
        raise_factor: float = 1.5,
        lower_factor: float = 0.8,
        waste_high: float = 0.5,
        waste_low: float = 0.1,
    ) -> None:
        if not lo <= initial <= hi:
            raise ValueError("initial threshold must lie within [lo, hi]")
        self.value = initial
        self.lo = lo
        self.hi = hi
        self.raise_factor = raise_factor
        self.lower_factor = lower_factor
        self.waste_high = waste_high
        self.waste_low = waste_low
        self._last_issued = 0
        self._last_used = 0

    def update(self, total_issued: int, total_used: int) -> float:
        """Feed cumulative counters; returns the new threshold."""
        issued = total_issued - self._last_issued
        used = total_used - self._last_used
        self._last_issued = total_issued
        self._last_used = total_used
        if issued > 0:
            waste = 1.0 - used / issued
            if waste >= self.waste_high:
                self.value = min(self.value * self.raise_factor, self.hi)
            elif waste <= self.waste_low:
                self.value = max(self.value * self.lower_factor, self.lo)
        return self.value


@dataclass
class StagePlan:
    """Orders the manager issues at one stage boundary."""

    purge_rdds: list[int] = field(default_factory=list)
    prefetches: list[Block] = field(default_factory=list)


class MrdManager:
    """Centralized MRD state machine (one per application run)."""

    def __init__(
        self,
        dag: ApplicationDAG,
        profiler: AppProfiler,
        config: MrdConfig | None = None,
    ) -> None:
        self.dag = dag
        self.profiler = profiler
        self.config = config or MrdConfig()
        self.table = MrdTable(metric=self.config.metric)
        self.table.add_references(profiler.initial_references())
        self.threshold_controller = (
            AdaptiveThresholdController(initial=self.config.prefetch_threshold)
            if self.config.adaptive_threshold
            else None
        )
        self._purged: set[int] = set()
        #: rdd ids whose blocks exist (have been computed) — only these
        #: can be purged or prefetched.
        self._materialized: set[int] = set()
        #: This application's rdd-id universe.  On a shared (multi-
        #: tenant) cluster the node stores also hold other applications'
        #: blocks; every store scan below must ignore those — a foreign
        #: block is not "infinitely distant data worth evicting", it is
        #: simply not ours to reason about.
        self._known_rdds: set[int] = {r.id for r in dag.app.rdds}
        #: Largest number of references ever held by the MRD_Table — the
        #: paper's storage-overhead metric (§4.4: "the largest MRD_Table
        #: ... contained less than 300 references").
        self.max_table_size = self.table.size()
        #: Latest cache-status report per node, as delivered through the
        #: control plane.  Under rpc it lags live state by at least one
        #: message latency; a synchronous (instant) plane builds no
        #: reports, and selection reads live state, which is what a
        #: report delivered at send time would hold.
        self.status_view: dict[int, CacheStatusReport] = {}

    # ------------------------------------------------------------------
    # lifecycle notifications from the scheduler
    # ------------------------------------------------------------------
    def on_job_submit(self, job_id: int) -> None:
        refs, created = self.profiler.on_job_submit(job_id)
        self.table.add_references(refs)
        self.max_table_size = max(self.max_table_size, self.table.size())
        for rdd_id in created:
            self.table.track(rdd_id)
        # New information can resurrect an RDD we purged earlier
        # (ad-hoc mode): allow it to be purged again later.
        self._purged -= {r.rdd_id for r in refs}

    def on_block_created(self, rdd_id: int) -> None:
        """A cached RDD's blocks entered the cluster (first computation)."""
        self._materialized.add(rdd_id)

    def on_cache_status(self, report: CacheStatusReport) -> None:
        """A worker's ``reportCacheStatus`` message arrived at the driver.

        Keeps the newest report per node by send time — a reordered rpc
        delivery carrying older data than the view must not regress it.
        """
        held = self.status_view.get(report.node_id)
        if held is not None and held.sent_at > report.sent_at:
            return
        self.status_view[report.node_id] = report

    def on_worker_deregister(self, node_id: int) -> None:
        """A worker left the cluster: its reported status is void."""
        self.status_view.pop(node_id, None)

    def on_stage_start(self, seq: int, cluster: Cluster) -> StagePlan:
        """Advance distances; emit purge + prefetch orders."""
        job_id = self.dag.job_of_seq(seq)
        self.table.advance(seq, job_id)
        plan = StagePlan()
        if self.config.eager_purge:
            plan.purge_rdds = self._select_purges()
        plan.prefetches = self._select_prefetches(cluster)
        return plan

    def distance(self, rdd_id: int) -> float:
        """Current reference distance (the CacheMonitors' lookup)."""
        return self.table.distance(rdd_id)

    # ------------------------------------------------------------------
    # order selection
    # ------------------------------------------------------------------
    def _select_purges(self) -> list[int]:
        purges = [
            rdd_id
            for rdd_id in self.table.dead_rdds()
            if rdd_id in self._materialized and rdd_id not in self._purged
        ]
        self._purged.update(purges)
        return purges

    def current_threshold(self, cluster: Cluster) -> float:
        """Effective prefetch threshold (fixed, or controller-driven)."""
        if self.threshold_controller is None:
            return self.config.prefetch_threshold
        stats = cluster.master.total_stats()
        return self.threshold_controller.update(
            stats.prefetches_issued, stats.prefetches_used
        )

    def _select_prefetches(self, cluster: Cluster) -> list[Block]:
        cfg = self.config
        if cfg.max_prefetch_per_node == 0:
            return []
        threshold = self.current_threshold(cluster)
        master = cluster.master
        rdd_by_id = self.dag.app.rdd_by_id
        live_nodes = master.live_nodes()
        capacity = {n.node_id: n.memory.capacity_mb for n in live_nodes}
        # Free memory starts from each node's *reported* status when one
        # has been delivered (the paper's reportCacheStatus loop) and
        # falls back to live state for nodes that never reported.  Block
        # residency and the worst-resident distance below stay live — a
        # modelling simplification documented in docs/architecture.md.
        free = {
            n.node_id: (
                self.status_view[n.node_id].free_mb
                if n.node_id in self.status_view
                else n.memory.free_mb
            )
            for n in live_nodes
        }
        issued = {n.node_id: 0 for n in live_nodes}
        candidates = self.table.candidates_by_distance()
        # Worst (largest) resident distance per node, for the guarded
        # forced-prefetch paths.  Computed on a node's first block that
        # does not fit: this loop mutates no store, so the value is the
        # same whenever it is read.
        worst_resident: dict[int, float] = {}
        # Distance of every finite-distance rdd (``candidates`` keyed by
        # rdd), built for the first worst-resident scan.
        finite: dict[int, float] | None = None
        # Nodes on which the guard has refused a block (``worst <= dist``).
        # Candidates come nearest first and a node's free memory only
        # shrinks, so from then on the guard refuses every block that
        # does not fit there: the walk leaves such a node at once.
        guarded_out: set[int] = set()
        orders: list[Block] = []
        managers = master.managers
        tasks_by_node = master.placement.tasks_by_node
        num_slots = master.num_nodes
        # Each node's partitions for a partition count (placement does
        # not change while a boundary plans).
        homes_by_count: dict[int, Sequence[Sequence[int]]] = {}
        # Per live node: its store, the store's live resident-id view and
        # per-rdd count, its in-flight map and its disk.
        node_state = [
            (
                n.node_id,
                n.memory,
                n.memory.resident_ids(),
                n.memory.resident_count,
                managers[n.node_id].inflight_prefetch,
                n.disk,
            )
            for n in live_nodes
        ]
        per_node_cap = cfg.max_prefetch_per_node
        guarded = cfg.guarded_prefetch
        max_total = per_node_cap * len(live_nodes)
        issued_total = 0
        # While membership is static every resident block sits at its
        # home, so an RDD (or one node's share of it) with all partitions
        # resident has nothing to fetch: the walk would skip every
        # partition.  Under churn a block may sit off its home and the
        # walk must run.
        static = master.static_members
        all_counts = [state[3] for state in node_state]
        for dist, rdd_id in candidates:
            if issued_total >= max_total:
                # Every live node is at its per-node cap (the total only
                # reaches live_count * cap when each node contributed
                # exactly cap): no later candidate can be issued.
                break
            if rdd_id not in self._materialized:
                continue
            rdd = rdd_by_id(rdd_id)
            num_partitions = rdd.num_partitions
            if static and num_partitions == sum(c(rdd_id) for c in all_counts):
                continue
            size_mb = rdd.partition_size_mb
            rdd_name = rdd.name
            # Each node's decisions read and write only that node's
            # counters, so nodes are walked one at a time (each over its
            # own partitions, ascending) and the orders merged back into
            # partition order.
            homes = homes_by_count.get(num_partitions)
            if homes is None:
                homes = homes_by_count[num_partitions] = tasks_by_node(
                    num_partitions, num_slots
                )
            picked: list[tuple[int, Block]] = []
            for node_id, memory, resident, count, inflight, disk in node_state:
                room = per_node_cap - issued[node_id]
                if room <= 0:
                    continue
                parts = homes[node_id]
                if not parts or (static and count(rdd_id) == len(parts)):
                    continue
                node_free = free[node_id]
                cap = capacity[node_id]
                for p in parts:
                    fits = size_mb <= node_free
                    if not fits and node_id in guarded_out:
                        break
                    # A plain tuple hashes and compares equal to the
                    # ``BlockId`` NamedTuple: most partitions are resident
                    # or in flight, and need no id built.
                    key = (rdd_id, p)
                    if key in resident or key in inflight:
                        continue
                    bid = BlockId(rdd_id, p)
                    if bid not in disk:
                        continue
                    # A block that does not fit forces evictions.  Above
                    # the threshold that is the paper's aggressive path,
                    # unguarded unless configured otherwise.  Below it,
                    # forced prefetch is allowed only when the incoming
                    # block is strictly more urgent than the worst
                    # resident block — the CacheMonitor's local
                    # memory-pressure decision.
                    if not fits and (
                        guarded or not (cap > 0 and node_free / cap >= threshold)
                    ):
                        worst = worst_resident.get(node_id)
                        if worst is None:
                            if finite is None:
                                finite = {r: d for d, r in candidates}
                            worst = self._worst_cached_distance(memory, finite)
                            worst_resident[node_id] = worst
                        if worst <= dist:
                            guarded_out.add(node_id)
                            break
                    picked.append((p, Block(id=bid, size_mb=size_mb, rdd_name=rdd_name)))
                    node_free = max(0.0, node_free - size_mb)
                    room -= 1
                    if room == 0:
                        break
                free[node_id] = node_free
                issued[node_id] = per_node_cap - room
            if picked:
                picked.sort(key=itemgetter(0))
                orders.extend(block for _, block in picked)
                issued_total += len(picked)
        return orders

    def _worst_cached_distance(
        self, memory: MemoryStore, finite: dict[int, float]
    ) -> float:
        """Largest distance of this app's rdds resident in ``memory``.

        ``finite`` holds every finite distance in the table, so an rdd
        missing from it is at infinite distance, which ends the scan.
        Returns -1.0 when none of this app's rdds is resident.
        """
        known = self._known_rdds
        worst = -1.0
        for rdd_id in memory.resident_rdd_ids():
            if rdd_id in known:
                d = finite.get(rdd_id, INFINITE)
                if d == INFINITE:
                    return INFINITE
                if d > worst:
                    worst = d
        return worst

    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Application finished: let the profiler persist its profile."""
        self.profiler.finalize()
