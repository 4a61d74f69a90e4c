"""Cluster-level block routing, membership, and cluster-wide orders.

The master knows which node is *home* for every block (Spark places a
cached partition on the executor that computed it; we derive placement
deterministically from the partition index through a pluggable
:mod:`~repro.cluster.placement` scheme) and fans cluster-wide purge
orders out to every node's block manager — the paper's
``BlockManagerMaster`` / ``BlockManagerMasterEndpoint`` role.

Membership is dynamic: :meth:`BlockManagerMaster.add_node` and
:meth:`~BlockManagerMaster.decommission_node` grow and shrink the
*live* set mid-run, bumping a membership ``epoch`` that plan caches
key on.  Node ids are positional forever — a decommissioned node's
slot in ``nodes``/``managers`` stays (its accumulated stats still
count), it just stops being a placement target.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.cluster.block import Block, BlockId
from repro.cluster.block_manager import BlockManager, BlockManagerStats
from repro.cluster.node import WorkerNode
from repro.cluster.placement import PlacementPolicy, build_placement
from repro.trace.events import Purge


class BlockManagerMaster:
    """Routes block operations to per-node managers."""

    def __init__(self, nodes: list[WorkerNode], placement: str = "stride") -> None:
        if not nodes:
            raise ValueError("a cluster needs at least one node")
        self.nodes = nodes
        self.managers = [BlockManager(node) for node in nodes]
        self._alive = [True] * len(nodes)
        #: Bumped on every join/decommission; 0 = the initial membership.
        self.epoch = 0
        self.placement: PlacementPolicy = build_placement(
            placement, [node.node_id for node in nodes]
        )

    @property
    def num_nodes(self) -> int:
        """Total node slots ever created (including decommissioned ones)."""
        return len(self.nodes)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    @property
    def live_node_ids(self) -> list[int]:
        """Sorted ids of nodes currently accepting placement."""
        return self.placement.live_node_ids

    def is_live(self, node_id: int) -> bool:
        return 0 <= node_id < len(self._alive) and self._alive[node_id]

    def live_nodes(self) -> list[WorkerNode]:
        nodes = self.nodes
        return [nodes[i] for i in self.placement.live_node_ids]

    def live_managers(self) -> list[BlockManager]:
        managers = self.managers
        return [managers[i] for i in self.placement.live_node_ids]

    @property
    def static_members(self) -> bool:
        """True while membership never changed and placement is the
        legacy striding — the engine's fast-path (shared plan cache)
        condition, byte-identical to the pre-elastic engine."""
        return self.epoch == 0 and self.placement.name == "stride"

    def add_node(self, node: WorkerNode) -> BlockManager:
        """A node joined (fresh id) or re-joined (a decommissioned id).

        The shared ``nodes`` list may already contain the node (under
        tenancy every application's master wraps the same list and the
        engine appends once); only this master's manager/liveness state
        is created here.  Returns the node's block manager.
        """
        node_id = node.node_id
        if node_id == len(self.nodes):
            self.nodes.append(node)
        elif node_id > len(self.nodes) or self.nodes[node_id] is not node:
            raise ValueError(
                f"join of node {node_id} does not extend the cluster "
                f"(next free id is {len(self.nodes)})"
            )
        while len(self.managers) < len(self.nodes):
            nid = len(self.managers)
            self.managers.append(BlockManager(self.nodes[nid]))
            self._alive.append(False)
        if self._alive[node_id]:
            raise ValueError(f"node {node_id} is already live")
        self._alive[node_id] = True
        self.placement.node_joined(node_id)
        self.epoch += 1
        return self.managers[node_id]

    def decommission_node(self, node_id: int) -> BlockManager:
        """Permanently remove a node from placement.

        Only the membership flips here — draining/migrating the node's
        cached blocks is the engine's job (it must price migrations and
        count what was dropped).  Returns the node's block manager.
        """
        if not self.is_live(node_id):
            raise ValueError(f"cannot decommission node {node_id}: not live")
        self.placement.node_left(node_id)  # raises on the last live node
        self._alive[node_id] = False
        self.epoch += 1
        return self.managers[node_id]

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def home_node_id(self, block_id: BlockId) -> int:
        """Home node for a block (partition → live node)."""
        return self.placement.place(block_id.partition)

    def manager_for(self, block_id: BlockId) -> BlockManager:
        return self.managers[self.placement.place(block_id.partition)]

    def task_node_id(self, partition: int) -> int:
        """Node executing task ``partition`` (locality-aligned with data)."""
        return self.placement.place(partition)

    # ------------------------------------------------------------------
    # cluster-wide orders
    # ------------------------------------------------------------------
    def purge_rdd(self, rdd_id: int, drop_disk: bool = False) -> int:
        """Evict every cached block of ``rdd_id`` across the cluster.

        This is the manager's "all-out purge" for RDDs whose reference
        distance reached infinity (Algorithm 1, lines 13–17).  Returns
        the number of blocks dropped from memory.
        """
        return sum(
            self.purge_rdd_on(mgr.node.node_id, rdd_id, drop_disk=drop_disk)
            for mgr in self.managers
        )

    def purge_rdd_on(self, node_id: int, rdd_id: int, drop_disk: bool = False) -> int:
        """Evict ``rdd_id``'s cached blocks on one node.

        The control plane addresses purge orders per worker (one
        :class:`~repro.control.messages.PurgeOrder` per node), so under
        the rpc transport different nodes may apply the same purge at
        different times.  Returns the number of blocks dropped from
        memory on this node.
        """
        mgr = self.managers[node_id]
        node_dropped = 0
        # Cancel in-flight prefetches of the purged RDD first: a block
        # only in flight (not yet memory-resident) must not re-enter
        # memory after the purge.  The memory scan below covers resident
        # blocks via purge_block's own cancellation.
        if mgr.inflight_prefetch:
            for bid in [b for b in mgr.inflight_prefetch if b.rdd_id == rdd_id]:
                mgr.cancel_inflight(bid, reason="purged")
        if mgr.node.memory.holds_rdd(rdd_id):
            for bid in [b for b in mgr.node.memory.block_ids() if b.rdd_id == rdd_id]:
                if not mgr.node.memory.is_pinned(bid) and mgr.purge_block(
                    bid, drop_disk=drop_disk
                ):
                    node_dropped += 1
        if drop_disk:
            mgr.node.disk.remove_rdd(rdd_id)
        rec = mgr.recorder
        if rec.enabled and node_dropped:
            rec.emit(Purge(
                t=rec.now, rdd_id=rdd_id, node_id=mgr.node.node_id,
                dropped_blocks=node_dropped, drop_disk=drop_disk,
            ))
        return node_dropped

    def drop_rdd_range(self, lo: int, hi: int) -> int:
        """Silently drop every block with ``lo <= rdd_id < hi``.

        Application-teardown path of the multi-tenant layer: a finished
        app's blocks leave memory *and* disk without touching eviction
        or purge counters (its metrics were already collected).  Eviction
        policies still observe the removals through ``on_remove``.
        Returns the number of memory blocks dropped.
        """
        dropped = 0
        for mgr in self.managers:
            memory, disk = mgr.node.memory, mgr.node.disk
            if any(lo <= r < hi for r in memory.resident_rdd_ids()):
                for bid in [b for b in memory.block_ids() if lo <= b.rdd_id < hi]:
                    if not memory.is_pinned(bid):
                        memory.remove(bid)
                        dropped += 1
            for rdd_id in disk.rdd_ids():
                if lo <= rdd_id < hi:
                    disk.remove_rdd(rdd_id)
        return dropped

    def memory_contains(self, block_id: BlockId) -> bool:
        return block_id in self.manager_for(block_id).node.memory

    def disk_contains(self, block_id: BlockId) -> bool:
        return block_id in self.manager_for(block_id).node.disk

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def total_stats(self) -> BlockManagerStats:
        """Sum of all per-node counters."""
        total = BlockManagerStats()
        for mgr in self.managers:
            s = mgr.stats
            total.hits += s.hits
            total.misses += s.misses
            total.insertions += s.insertions
            total.failed_insertions += s.failed_insertions
            total.evictions += s.evictions
            total.purged += s.purged
            total.prefetches_issued += s.prefetches_issued
            total.prefetches_used += s.prefetches_used
            total.prefetched_mb += s.prefetched_mb
            total.evicted_mb += s.evicted_mb
        return total

    def cached_blocks(self) -> Iterable[Block]:
        for mgr in self.managers:
            yield from mgr.node.memory.blocks()
