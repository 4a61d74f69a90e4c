"""Cache-management *scheme*: a policy plus its cluster-level behaviour.

An :class:`EvictionPolicy` only ranks blocks on one node.  A full cache
management scheme — what the paper's figures compare — also includes
centralized behaviour: stage-progress tracking, cluster-wide purge
orders and prefetch orders.  :class:`CacheScheme` is the interface the
simulator drives:

* ``prepare(dag)`` — build static state from the compiled DAG.
* ``policy_factory(node_id)`` — per-node eviction policy instances.
* ``on_job_submit(job_id)`` — a new job's DAG becomes visible
  (meaningful for ad-hoc profiling modes).
* ``on_stage_start(seq, cluster)`` — the execution advanced; the scheme
  may return purge orders and prefetch orders for the engine to apply.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cluster.block import Block, BlockId
from repro.cluster.cluster import Cluster
from repro.dag.dag_builder import ApplicationDAG
from repro.policies.base import EvictionPolicy
from repro.policies.belady import BeladyPolicy
from repro.policies.fifo import FifoPolicy
from repro.policies.lru import LruPolicy
from repro.policies.lrc import LrcPolicy
from repro.policies.memtune import MemTunePolicy
from repro.policies.profile_oracle import ProfileOracle
from repro.policies.random_policy import RandomPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.control.messages import CacheStatusReport


@dataclass
class StageOrders:
    """Cluster-level actions a scheme requests at a stage boundary."""

    purge_rdds: list[int] = field(default_factory=list)
    #: Blocks to fetch from disk into memory, already filtered to ones
    #: that are disk-resident and not in memory; best (lowest distance)
    #: first per node.
    prefetches: list[Block] = field(default_factory=list)
    #: Driver distance-table snapshot to broadcast to every worker
    #: (``None`` for schemes whose node policies hold no distance view).
    #: Built fresh per boundary and never mutated afterwards.
    table_snapshot: dict[int, float] | None = None


class CacheScheme(abc.ABC):
    """A complete cache-management strategy, pluggable into the engine."""

    name: str = "scheme"

    @abc.abstractmethod
    def prepare(self, dag: ApplicationDAG) -> None:
        """Compile static state from the application DAG."""

    @abc.abstractmethod
    def policy_factory(self, node_id: int) -> EvictionPolicy:
        """Eviction policy instance for node ``node_id``."""

    def on_job_submit(self, job_id: int) -> None:
        """A new job DAG arrived (ad-hoc profiling hook)."""

    def on_stage_start(self, seq: int, cluster: Cluster) -> StageOrders:
        """Execution advanced to active stage ``seq``."""
        return StageOrders()

    def on_block_created(self, rdd_id: int) -> None:
        """A cached RDD's blocks were computed for the first time."""

    def on_cache_status(self, report: CacheStatusReport) -> None:
        """A worker's periodic cache-status report reached the driver.

        Delivered through the control plane, so under the rpc transport
        the driver's view of worker memory lags reality by at least one
        message latency (typically one stage boundary).
        """

    def on_worker_deregister(self, node_id: int) -> None:
        """A worker left the cluster; forget its reported status."""

    def table_snapshot(self) -> dict[int, float] | None:
        """Fresh distance-table snapshot for (re-)registered workers.

        Distance-tracking schemes return the mapping the driver would
        broadcast at a stage boundary; others return ``None``.
        """
        return None

    def reference_distance(self, rdd_id: int) -> float | None:
        """Current reference distance of ``rdd_id``, if tracked.

        Distance-tracking schemes (MRD) override this so the trace
        recorder can stamp eviction events with the victim's distance
        at the tick it was chosen; others return ``None``.
        """
        return None

    def finalize(self) -> None:
        """The application finished (persist profiles, etc.)."""


class _OracleScheme(CacheScheme):
    """Base for schemes whose per-node policies share a ProfileOracle."""

    visibility = "recurring"

    def __init__(self) -> None:
        self.oracle: ProfileOracle | None = None

    def prepare(self, dag: ApplicationDAG) -> None:
        self.oracle = ProfileOracle(dag, visibility=self.visibility)

    def on_stage_start(self, seq: int, cluster: Cluster) -> StageOrders:
        assert self.oracle is not None, "prepare() must run before the simulation"
        self.oracle.advance(seq)
        return StageOrders()


class LruScheme(CacheScheme):
    """Spark's default: per-node LRU, no purge, no prefetch."""

    name = "LRU"

    def prepare(self, dag: ApplicationDAG) -> None:  # LRU needs no DAG info
        pass

    def policy_factory(self, node_id: int) -> EvictionPolicy:
        return LruPolicy()


class FifoScheme(CacheScheme):
    """FIFO control baseline."""

    name = "FIFO"

    def prepare(self, dag: ApplicationDAG) -> None:
        pass

    def policy_factory(self, node_id: int) -> EvictionPolicy:
        return FifoPolicy()


class RandomScheme(CacheScheme):
    """Random-eviction control baseline."""

    name = "Random"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def prepare(self, dag: ApplicationDAG) -> None:
        pass

    def policy_factory(self, node_id: int) -> EvictionPolicy:
        return RandomPolicy(seed=self.seed + node_id)


class LfuScheme(CacheScheme):
    """Least-Frequently-Used control baseline (not in the paper)."""

    name = "LFU"

    def prepare(self, dag: ApplicationDAG) -> None:
        pass

    def policy_factory(self, node_id: int) -> EvictionPolicy:
        from repro.policies.lfu import LfuPolicy

        return LfuPolicy()


class LrcScheme(_OracleScheme):
    """Least Reference Count (dependency-aware baseline)."""

    name = "LRC"

    def policy_factory(self, node_id: int) -> EvictionPolicy:
        assert self.oracle is not None
        return LrcPolicy(self.oracle)


class BeladyScheme(_OracleScheme):
    """Clairvoyant MIN (upper bound)."""

    name = "Belady"

    def policy_factory(self, node_id: int) -> EvictionPolicy:
        assert self.oracle is not None
        return BeladyPolicy(self.oracle)


class MemTuneScheme(_OracleScheme):
    """MemTune-style: runnable-stage dependency lists + 1-stage prefetch."""

    name = "MemTune"

    def __init__(self, lookahead: int = 1, prefetch: bool = True) -> None:
        super().__init__()
        self.lookahead = lookahead
        self.prefetch = prefetch

    def policy_factory(self, node_id: int) -> EvictionPolicy:
        assert self.oracle is not None
        return MemTunePolicy(self.oracle, lookahead=self.lookahead)

    def on_stage_start(self, seq: int, cluster: Cluster) -> StageOrders:
        orders = super().on_stage_start(seq, cluster)
        if not self.prefetch:
            return orders
        assert self.oracle is not None
        dag = self.oracle.dag
        # MemTune only prefetches data for the currently runnable stage,
        # and only when it fits in free memory (no forced eviction).
        stage = dag.active_stages[seq]
        master = cluster.master
        free_by_node = {n.node_id: n.memory.free_mb for n in master.live_nodes()}
        for rdd in stage.cache_reads:
            for p in range(rdd.num_partitions):
                block = Block(id=BlockId(rdd.id, p), size_mb=rdd.partition_size_mb, rdd_name=rdd.name)
                mgr = master.manager_for(block.id)
                node_id = mgr.node.node_id
                if block.id in mgr.node.memory or block.id not in mgr.node.disk:
                    continue
                if block.id in mgr.inflight_prefetch:
                    continue
                if block.size_mb <= free_by_node[node_id]:
                    free_by_node[node_id] -= block.size_mb
                    orders.prefetches.append(block)
        return orders
