"""First-In First-Out eviction — a recency-oblivious control baseline."""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Iterator, Set as AbstractSet
from typing import TYPE_CHECKING

from repro.policies.base import BATCH_UNSUPPORTED, BatchUnsupported, EvictionPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.block import Block, BlockId
    from repro.cluster.memory_store import MemoryStore


class FifoPolicy(EvictionPolicy):
    """Evicts in insertion order, ignoring accesses entirely.

    On a columnar store the queue position is mirrored into the store's
    key column as an arrival stamp (written once, on first sighting), so
    large stores can select victims in batch.
    """

    name = "FIFO"

    #: Below this store size the in-order queue walk beats the numpy
    #: kernel's fixed overhead, so batch selection only engages above it.
    batch_min_blocks = 512

    def __init__(self) -> None:
        self._queue: OrderedDict[BlockId, None] = OrderedDict()
        self._stamp = 0
        #: Whether the key column mirrors ``_queue``; see LruPolicy.
        self._keys_valid = False

    def _enqueue(self, block_id: BlockId) -> None:
        self._queue[block_id] = None
        if self._keys_valid and (st := self._store) is not None:
            self._stamp += 1
            st.set_key(block_id, float(self._stamp))

    def _rebuild_keys(self) -> None:
        """Stamp every queued block in arrival order (oldest first)."""
        st = self._store
        assert st is not None
        stamp = self._stamp
        for bid in self._queue:
            stamp += 1
            st.set_key(bid, float(stamp))
        self._stamp = stamp
        self._keys_valid = True

    def on_insert(self, block: Block) -> None:
        if block.id not in self._queue:
            self._enqueue(block.id)

    def on_access(self, block: Block) -> None:
        # FIFO deliberately ignores accesses.
        if block.id not in self._queue:
            self._enqueue(block.id)

    def on_remove(self, block_id: BlockId) -> None:
        self._queue.pop(block_id, None)

    def eviction_order(self, store: MemoryStore) -> Iterator[BlockId]:
        return iter(list(self._queue.keys()))

    def _victim_order(self, store: MemoryStore, for_prefetch: bool) -> Iterable[BlockId]:
        """The arrival queue itself, oldest first — no copy."""
        if for_prefetch:
            return super()._victim_order(store, for_prefetch)
        return self._queue

    def select_victims(
        self,
        store: MemoryStore,
        needed_mb: float,
        protect: AbstractSet[BlockId] = frozenset(),
        for_prefetch: bool = False,
        incoming: Block | None = None,
    ) -> list[BlockId] | None:
        """Queue walk on small stores; batch on large ones."""
        if for_prefetch:
            return super().select_victims(
                store, needed_mb, protect, for_prefetch, incoming
            )
        if len(self._queue) >= self.batch_min_blocks:
            batched = self.select_victims_batch(store, needed_mb, protect)
            if not isinstance(batched, BatchUnsupported):
                return self._admitted(batched, incoming, store, False)
        victims = self._select_victims_walk(store, needed_mb, protect)
        return self._admitted(victims, incoming, store, False)

    def select_victims_batch(
        self,
        store: MemoryStore,
        needed_mb: float,
        protect: AbstractSet[BlockId] = frozenset(),
        for_prefetch: bool = False,
    ) -> list[BlockId] | None | BatchUnsupported:
        st = self._store
        if st is None or st is not store:
            return BATCH_UNSUPPORTED
        from repro.policies import vectorized

        st.ensure_columns()
        if not self._keys_valid:
            self._rebuild_keys()
        cols = st.columns()
        # Primary: arrival stamp (unique); id columns close the total order.
        return vectorized.select_block_victims(
            st, cols, needed_mb, protect, cols.key, (cols.part, cols.rdd)
        )
