"""Per-node local disk store.

Cached RDD blocks are written through to local disk on first
computation (``MEMORY_AND_DISK`` semantics, see
:class:`repro.dag.rdd.StorageLevel`), so an evicted block can later be
re-read — synchronously on a cache miss, or asynchronously by the MRD
prefetcher.  Capacity is effectively unbounded (the paper's nodes have
200 GB disks against 8 GB of RAM) but is still tracked so tests can
assert accounting invariants.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.cluster.block import Block, BlockId


class DiskStore:
    """Block map with size accounting and a per-RDD index.

    The index lets a purge drop one RDD's blocks without scanning the
    whole disk; it keeps each RDD's blocks in insertion order, so
    :meth:`remove_rdd` removes them in the order a filtered scan would.
    """

    def __init__(self, capacity_mb: float = 200_000.0) -> None:
        if capacity_mb <= 0:
            raise ValueError("disk capacity must be positive")
        self.capacity_mb = float(capacity_mb)
        self._blocks: dict[BlockId, Block] = {}
        #: rdd id -> that RDD's block ids on this disk, in insertion order
        self._by_rdd: dict[int, dict[BlockId, None]] = {}
        self._used_mb = 0.0

    @property
    def used_mb(self) -> float:
        return self._used_mb

    @property
    def free_mb(self) -> float:
        return self.capacity_mb - self._used_mb

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, block_id: BlockId) -> bool:
        return block_id in self._blocks

    def get(self, block_id: BlockId) -> Block | None:
        return self._blocks.get(block_id)

    def block_ids(self) -> Iterator[BlockId]:
        return iter(self._blocks)

    def rdd_ids(self) -> list[int]:
        """Rdd ids with at least one block on disk (first-write order)."""
        return list(self._by_rdd)

    def put(self, block: Block) -> bool:
        """Store ``block``; returns False if the disk is full."""
        if block.id in self._blocks:
            return True
        if block.size_mb > self.free_mb:
            return False
        self._blocks[block.id] = block
        ids = self._by_rdd.get(block.id.rdd_id)
        if ids is None:
            self._by_rdd[block.id.rdd_id] = {block.id: None}
        else:
            ids[block.id] = None
        self._used_mb += block.size_mb
        return True

    def remove(self, block_id: BlockId) -> Block | None:
        block = self._blocks.pop(block_id, None)
        if block is not None:
            ids = self._by_rdd[block_id.rdd_id]
            del ids[block_id]
            if not ids:
                del self._by_rdd[block_id.rdd_id]
            self._used_mb -= block.size_mb
            if self._used_mb < 1e-9:
                self._used_mb = 0.0
        return block

    def remove_rdd(self, rdd_id: int) -> int:
        """Remove every block of ``rdd_id``; returns how many there were."""
        ids = self._by_rdd.get(rdd_id)
        if ids is None:
            return 0
        removed = list(ids)
        for block_id in removed:
            self.remove(block_id)
        return len(removed)
