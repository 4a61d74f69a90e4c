"""Worker node: executor slots + memory cache + local disk.

The node also carries the state of its *disk I/O channel*: cache-miss
reads and prefetches are serialized per node (one disk head), which is
what makes aggressive prefetching a real trade-off rather than free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.disk_store import DiskStore
from repro.cluster.memory_store import MemoryStore
from repro.cluster.network import DiskModel

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.policies.base import EvictionPolicy


class WorkerNode:
    """One simulated worker machine."""

    def __init__(
        self,
        node_id: int,
        num_slots: int,
        cache_capacity_mb: float,
        policy: EvictionPolicy,
        disk_model: DiskModel | None = None,
        disk_capacity_mb: float = 200_000.0,
    ) -> None:
        if num_slots <= 0:
            raise ValueError("a node needs at least one executor slot")
        self.node_id = node_id
        self.num_slots = num_slots
        self.memory = MemoryStore(cache_capacity_mb, policy)
        self.disk = DiskStore(disk_capacity_mb)
        self.disk_model = disk_model or DiskModel()
        #: Simulated time at which the disk channel is next free.
        self.io_free_at = 0.0
        #: Relative CPU speed of this node (heterogeneous clusters set
        #: this from ClusterConfig.heterogeneity; 1.0 = cluster nominal).
        self.cpu_factor = 1.0

    @property
    def policy(self) -> EvictionPolicy:
        return self.memory.policy

    def reserve_io(self, now: float, size_mb: float) -> float:
        """Schedule a disk read of ``size_mb``; returns completion time.

        Requests queue FIFO on the single channel: the read starts at
        ``max(now, io_free_at)`` and occupies the channel until done.
        """
        start = max(now, self.io_free_at)
        done = start + self.disk_model.read_time(size_mb)
        self.io_free_at = done
        return done

    def clear(self) -> None:
        """Drop every stored block and idle the disk channel (the node
        left the cluster; unmigrated blocks die here)."""
        for bid in list(self.memory.block_ids()):
            self.memory.remove(bid)
        for bid in list(self.disk.block_ids()):
            self.disk.remove(bid)
        self.io_free_at = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkerNode({self.node_id} slots={self.num_slots} "
            f"cache={self.memory.used_mb:.0f}/{self.memory.capacity_mb:.0f}MB)"
        )
