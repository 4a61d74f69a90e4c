"""Least Frequently Used — a frequency-based control baseline.

Not evaluated in the paper, but a natural foil for LRC: LFU counts
*past* accesses where LRC counts *future* references.  On DAG workloads
LFU inherits LRU's blindness to the workflow (a block's history says
little about its next reference) and additionally ossifies: long-dead
blocks with large historical counts are the last to leave.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Set as AbstractSet
from typing import TYPE_CHECKING

from repro.policies.base import BATCH_UNSUPPORTED, BatchUnsupported, EvictionPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.block import Block, BlockId
    from repro.cluster.memory_store import MemoryStore


class LfuPolicy(EvictionPolicy):
    """Evicts the block with the fewest lifetime accesses (ties: LRU).

    On a columnar store the frequency count is mirrored into the key
    column and the touch stamp into the auxiliary column, replacing the
    per-selection python sort with a batched kernel.
    """

    name = "LFU"

    #: Below this store size the per-selection object sort beats the
    #: numpy kernel's fixed overhead, so batch only engages above it.
    batch_min_blocks = 128

    def __init__(self) -> None:
        self._freq: dict[BlockId, int] = {}
        self._touch = itertools.count()
        self._last_touch: dict[BlockId, int] = {}
        #: Whether the key/aux columns mirror ``_freq``/``_last_touch``.
        #: Starts False — per-access column writes are pure overhead
        #: until a batch selection actually engages — and flips True on
        #: the first batch selection's rebuild; maintenance then keeps
        #: the columns current.
        self._keys_valid = False

    def _count(self, block: Block) -> None:
        bid = block.id
        freq = self._freq.get(bid, 0) + 1
        self._freq[bid] = freq
        touch = next(self._touch)
        self._last_touch[bid] = touch
        if self._keys_valid and (st := self._store) is not None:
            st.set_key(bid, float(freq))
            st.set_aux(bid, float(touch))

    def _rebuild_keys(self) -> None:
        """Stamp frequency/touch columns for every tracked resident block."""
        st = self._store
        assert st is not None
        for bid, touch in self._last_touch.items():
            st.set_key(bid, float(self._freq.get(bid, 0)))
            st.set_aux(bid, float(touch))
        self._keys_valid = True

    def on_insert(self, block: Block) -> None:
        self._count(block)

    def on_access(self, block: Block) -> None:
        self._count(block)

    def on_remove(self, block_id: BlockId) -> None:
        # Frequency history survives eviction (classic LFU keeps it; a
        # re-inserted block resumes its count).
        self._last_touch.pop(block_id, None)

    def frequency(self, block_id: BlockId) -> int:
        return self._freq.get(block_id, 0)

    def eviction_order(self, store: MemoryStore) -> Iterator[BlockId]:
        def key(bid: BlockId) -> tuple[int, int]:
            return (self._freq.get(bid, 0), self._last_touch.get(bid, 0))

        return iter(sorted(store.block_ids(), key=key))

    def select_victims(
        self,
        store: MemoryStore,
        needed_mb: float,
        protect: AbstractSet[BlockId] = frozenset(),
        for_prefetch: bool = False,
        incoming: Block | None = None,
    ) -> list[BlockId] | None:
        if len(store) < self.batch_min_blocks:
            victims = self._select_victims_walk(store, needed_mb, protect, for_prefetch)
            return self._admitted(victims, incoming, store, for_prefetch)
        return super().select_victims(
            store, needed_mb, protect, for_prefetch, incoming
        )

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
        # Primary: frequency; ties broken by touch stamp (unique), with
        # the id columns closing the total order as the contract asks.
        return vectorized.select_block_victims(
            st, cols, needed_mb, protect, cols.key, (cols.part, cols.rdd, cols.aux)
        )
