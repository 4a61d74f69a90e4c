"""Least Recently Used — Spark's default cache policy (the paper's baseline)."""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Iterator, Set as AbstractSet
from typing import TYPE_CHECKING

from repro.policies.base import (
    BATCH_UNSUPPORTED,
    BatchUnsupported,
    EvictionPolicy,
    walk_victims,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.block import Block, BlockId
    from repro.cluster.memory_store import MemoryStore


class LruPolicy(EvictionPolicy):
    """Evicts the block that has gone longest without an access.

    Implemented with an ordered dict used as a recency queue: most
    recently touched block at the back, victim taken from the front —
    the same structure Spark's ``MemoryStore`` LinkedHashMap provides.
    On a columnar store the recency rank is mirrored into the store's
    key column as a monotonic touch stamp, so large stores can select
    victims in batch (oldest stamp first).
    """

    name = "LRU"

    #: Below this store size the in-order queue walk beats the numpy
    #: kernel's fixed overhead, so batch selection only engages above it.
    batch_min_blocks = 512

    def __init__(self) -> None:
        self._recency: OrderedDict[BlockId, None] = OrderedDict()
        self._stamp = 0
        #: Whether the store's key column currently mirrors ``_recency``.
        #: Starts False — per-touch stamp writes are pure overhead while
        #: the store is small enough for the queue walk — and flips True
        #: on the first batch selection, which rebuilds the column from
        #: the queue; maintenance then keeps it current.
        self._keys_valid = False

    def _touch(self, block_id: BlockId) -> None:
        if (st := self._store) is not None:
            self._stamp += 1
            st.set_key(block_id, float(self._stamp))

    def _rebuild_keys(self) -> None:
        """Stamp every queued block in recency order (oldest first)."""
        st = self._store
        assert st is not None
        stamp = self._stamp
        for bid in self._recency:
            stamp += 1
            st.set_key(bid, float(stamp))
        self._stamp = stamp
        self._keys_valid = True

    def on_insert(self, block: Block) -> None:
        bid = block.id
        recency = self._recency
        recency[bid] = None
        recency.move_to_end(bid)
        if self._keys_valid:
            self._touch(bid)

    def on_access(self, block: Block) -> None:
        bid = block.id
        recency = self._recency
        if bid in recency:
            recency.move_to_end(bid)
        else:  # defensive: access to a block the policy never saw inserted
            recency[bid] = None
        if self._keys_valid:
            self._touch(bid)

    def on_remove(self, block_id: BlockId) -> None:
        self._recency.pop(block_id, None)

    def eviction_order(self, store: MemoryStore) -> Iterator[BlockId]:
        # Oldest first.  Copy: callers may evict while iterating.
        return iter(list(self._recency.keys()))

    def _victim_order(self, store: MemoryStore, for_prefetch: bool) -> Iterable[BlockId]:
        """The recency queue itself, oldest first — no copy.

        Prefetch selections keep the base order (see :meth:`select_victims`).
        """
        if for_prefetch:
            return super()._victim_order(store, for_prefetch)
        return self._recency

    def select_victims(
        self,
        store: MemoryStore,
        needed_mb: float,
        protect: AbstractSet[BlockId] = frozenset(),
        for_prefetch: bool = False,
        incoming: Block | None = None,
    ) -> list[BlockId] | None:
        """Queue walk on small stores; batch on large ones.

        Prefetch-triggered selections go through the base path so
        subclasses overriding ``prefetch_eviction_order`` (and its batch
        counterpart) keep their distinct prefetch victim order.
        """
        if for_prefetch:
            return super().select_victims(
                store, needed_mb, protect, for_prefetch, incoming
            )
        if len(self._recency) >= self.batch_min_blocks:
            batched = self.select_victims_batch(store, needed_mb, protect)
            if not isinstance(batched, BatchUnsupported):
                return self._admitted(batched, incoming, store, False)
        # The recency queue itself, walked in place, oldest first.
        victims = walk_victims(self._recency, store, needed_mb, protect)
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
        # Primary: touch stamp (unique); id columns close the total order.
        return vectorized.select_block_victims(
            st, cols, needed_mb, protect, cols.key, (cols.part, cols.rdd)
        )
