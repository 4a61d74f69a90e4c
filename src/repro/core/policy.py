"""MRD as a pluggable :class:`CacheScheme` (full / eviction-only / prefetch-only).

This adapter wires the paper's three components together for the
simulator: the :class:`AppProfiler` (DAG parsing, profile storage), the
:class:`MrdManager` (MRD_Table, purge + prefetch orders) and one
:class:`CacheMonitor` per node (greatest-distance eviction).

Variants map directly to Figure 4's three bars:

* ``MrdScheme()`` — full MRD (eviction + prefetching).
* ``MrdScheme(prefetch=False)`` — eviction-only.
* ``MrdScheme(evict=False)`` — prefetch-only: nodes keep Spark's
  default LRU eviction and only the prefetching workflow is added.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from typing import TYPE_CHECKING

from repro.cluster.cluster import Cluster
from repro.core.app_profiler import AppProfiler, ProfileStore
from repro.core.cache_monitor import CacheMonitor, MrdTableView
from repro.core.manager import MrdConfig, MrdManager
from repro.dag.dag_builder import ApplicationDAG
from repro.policies.base import BATCH_UNSUPPORTED, BatchUnsupported, EvictionPolicy
from repro.policies.lru import LruPolicy
from repro.policies.scheme import CacheScheme, StageOrders

if TYPE_CHECKING:  # pragma: no cover
    from collections.abc import Mapping

    from repro.cluster.block import Block, BlockId
    from repro.cluster.memory_store import MemoryStore
    from repro.control.messages import CacheStatusReport


class PrefetchAwareLruPolicy(MrdTableView, LruPolicy):
    """LRU demand eviction + distance-aware prefetch eviction.

    The node policy of the *prefetch-only* MRD variant: ordinary
    insertion pressure keeps Spark's default LRU victims, but when a
    prefetch forces memory pressure the victim is the block with the
    largest reference distance (Algorithm 1's prefetching phase), and a
    prefetch is refused rather than allowed to displace blocks more
    urgent than the incoming one.  Distances come from the worker's
    delivered table view (:class:`MrdTableView`), so under the rpc
    control plane they can lag the driver by a boundary.
    """

    name = "LRU+MRD-prefetch"

    def __init__(self, manager: MrdManager) -> None:
        super().__init__()
        self._manager = manager
        #: Aux column (negated distance) lags the view until the first
        #: batched prefetch selection (and again after each accepted
        #: broadcast) refreshes it — per-insert aux writes only resume
        #: once a refresh proved the column is actually consulted.
        self._aux_dirty = True

    def _live_distance(self, rdd_id: int) -> float:
        return self._manager.distance(rdd_id)

    def on_insert(self, block: Block) -> None:
        super().on_insert(block)
        if self._store is not None and not self._aux_dirty:
            self._store.set_aux(block.id, -self.lookup_distance(block.id.rdd_id))

    def on_table_update(self, seq: int, distances: Mapping[int, float]) -> bool:
        applied = super().on_table_update(seq, distances)
        if applied:
            self._aux_dirty = True
        return applied

    def _refresh_aux(self) -> None:
        """Rewrite this policy's aux-column entries from the held view."""
        store = self._store
        assert store is not None
        self._aux_dirty = False
        keys: dict[int, float] = {}
        for bid in self._recency:
            key = keys.get(bid.rdd_id)
            if key is None:
                key = -self.lookup_distance(bid.rdd_id)
                keys[bid.rdd_id] = key
            store.set_aux(bid, key)

    def prefetch_eviction_order(self, store: MemoryStore):
        return iter(sorted(store.block_ids(), key=self._distance_key))

    def admit_prefetch_over(self, block: Block, victims: list[BlockId], store: MemoryStore) -> bool:
        incoming = self._distance_key(block.id)
        return all(incoming > self._distance_key(v) for v in victims)

    def _distance_key(self, bid: BlockId) -> tuple[float, int, int]:
        return (-self.lookup_distance(bid.rdd_id), -bid.partition, -bid.rdd_id)

    def select_victims_batch(
        self,
        store: MemoryStore,
        needed_mb: float,
        protect: AbstractSet[BlockId] = frozenset(),
        for_prefetch: bool = False,
    ) -> list[BlockId] | None | BatchUnsupported:
        if not for_prefetch:
            # Demand pressure: plain LRU recency batch.
            return super().select_victims_batch(store, needed_mb, protect)
        st = self._store
        if st is None or st is not store or self._distances is None:
            # Without a delivered snapshot distances come live from the
            # manager and can drift without a broadcast to dirty the aux
            # column — only the object walk is safe.
            return BATCH_UNSUPPORTED
        from repro.policies import vectorized

        st.ensure_columns()
        if self._aux_dirty:
            self._refresh_aux()
        cols = st.columns()
        # Primary: negated distance; id columns close the total order
        # mirroring ``_distance_key``'s ``(-dist, -part, -rdd)``.
        return vectorized.select_block_victims(
            st, cols, needed_mb, protect, cols.aux, (-cols.rdd, -cols.part)
        )


class MrdScheme(CacheScheme):
    """Most Reference Distance cache management."""

    def __init__(
        self,
        evict: bool = True,
        prefetch: bool = True,
        metric: str = "stage",
        mode: str = "recurring",
        prefetch_threshold: float = 0.25,
        adaptive_threshold: bool = False,
        max_prefetch_per_node: int = 8,
        eager_purge: bool = True,
        guarded_prefetch: bool = False,
        tie_breaker: str = "partition",
        profile_store: ProfileStore | None = None,
    ) -> None:
        if not evict and not prefetch:
            raise ValueError("at least one of evict/prefetch must be enabled")
        self.evict = evict
        self.prefetch = prefetch
        self.metric = metric
        self.mode = mode
        self.tie_breaker = tie_breaker
        self.profile_store = profile_store
        self.mrd_config = MrdConfig(
            metric=metric,
            prefetch_threshold=prefetch_threshold,
            adaptive_threshold=adaptive_threshold,
            max_prefetch_per_node=max_prefetch_per_node if prefetch else 0,
            eager_purge=eager_purge and evict,
            guarded_prefetch=guarded_prefetch,
        )
        self.manager: MrdManager | None = None
        variant = "MRD"
        if not prefetch:
            variant = "MRD-evict"
        elif not evict:
            variant = "MRD-prefetch"
        if metric == "job":
            variant += "-jobdist"
        if mode == "adhoc":
            variant += "-adhoc"
        self.name = variant

    # ------------------------------------------------------------------
    def prepare(self, dag: ApplicationDAG) -> None:
        profiler = AppProfiler(dag, mode=self.mode, store=self.profile_store)
        self.manager = MrdManager(dag, profiler, self.mrd_config)

    def policy_factory(self, node_id: int) -> EvictionPolicy:
        assert self.manager is not None, "prepare() must run before building the cluster"
        if self.evict:
            return CacheMonitor(node_id, self.manager, tie_breaker=self.tie_breaker)
        # Prefetch-only: Spark's default LRU handles demand evictions,
        # but prefetch-forced pressure uses reference distances.
        return PrefetchAwareLruPolicy(self.manager)

    def on_job_submit(self, job_id: int) -> None:
        assert self.manager is not None
        self.manager.on_job_submit(job_id)

    def on_stage_start(self, seq: int, cluster: Cluster) -> StageOrders:
        assert self.manager is not None
        plan = self.manager.on_stage_start(seq, cluster)
        return StageOrders(
            purge_rdds=plan.purge_rdds if self.evict else [],
            prefetches=plan.prefetches if self.prefetch else [],
            table_snapshot=self.manager.table.snapshot(),
        )

    def on_block_created(self, rdd_id: int) -> None:
        """Engine callback: a cached RDD's blocks now exist."""
        assert self.manager is not None
        self.manager.on_block_created(rdd_id)

    def on_cache_status(self, report: CacheStatusReport) -> None:
        assert self.manager is not None
        self.manager.on_cache_status(report)

    def on_worker_deregister(self, node_id: int) -> None:
        assert self.manager is not None
        self.manager.on_worker_deregister(node_id)

    def table_snapshot(self) -> dict[int, float] | None:
        """Fresh snapshot for a (re-)registering worker (paper §4.4)."""
        assert self.manager is not None
        return self.manager.table.snapshot()

    def reference_distance(self, rdd_id: int) -> float | None:
        """The MRD_Table's current distance (trace-recorder hook)."""
        assert self.manager is not None
        return self.manager.distance(rdd_id)

    def finalize(self) -> None:
        if self.manager is not None:
            self.manager.finalize()
