"""CacheMonitor: MRD's per-worker eviction logic.

Deployed on every node, the monitor holds a copy of the
reference-distance profile — refreshed by the driver's per-boundary
:class:`~repro.control.messages.StageBoundary` table broadcast, with a
fall-through to the shared :class:`MrdManager` for monitors that were
never wired through a control plane (unit tests, direct construction) —
and picks eviction victims locally: the block with the *greatest*
reference distance goes first, infinite-distance blocks leading, ties
broken by a stable rule (:data:`TIE_BREAKERS`).  The paper's
``reportCacheStatus`` is sent by the engine on each worker's behalf
(``SparkSimulator._send_status_reports``).

Under the ``rpc`` control plane the broadcast arrives late, so the
monitor evicts against the *previous* boundary's distances until the
new snapshot lands — the worker-side staleness the distributed design
has to live with.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Iterable, Iterator, Mapping, Set as AbstractSet
from operator import itemgetter
from typing import TYPE_CHECKING

from repro.cluster.block import Block, BlockId
from repro.core.manager import MrdManager
from repro.core.mrd_table import INFINITE
from repro.policies.base import EvictionPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.memory_store import MemoryStore


class MrdTableView:
    """Worker-local view of the driver's MRD_Table.

    Distance lookups go through the last delivered table broadcast when
    one exists; before any broadcast (or outside an engine run) they
    fall back to the live shared manager — which is exactly what an
    instantly-delivered snapshot would answer, since the table only
    changes at stage boundaries.
    """

    #: Last delivered snapshot (shared, read-only) and its boundary seq.
    _distances: Mapping[int, float] | None = None
    _view_seq: int = -1

    def on_table_update(self, seq: int, distances: Mapping[int, float]) -> bool:
        """Replace the local view; refuse snapshots older than held."""
        if seq < self._view_seq:
            return False
        self._view_seq = seq
        self._distances = distances
        return True

    def lookup_distance(self, rdd_id: int) -> float:
        view = self._distances
        if view is not None:
            return view.get(rdd_id, INFINITE)
        return self._live_distance(rdd_id)

    def _live_distance(self, rdd_id: int) -> float:  # pragma: no cover - abstract
        raise NotImplementedError


#: Tie-breaking rules for blocks with equal reference distance.  The
#: paper leaves tie prioritization as future work (§3.3); every rule
#: here is *stable* (no recency), which is the property that prevents
#: cyclic-scan thrash within an RDD:
#:
#: * ``"partition"`` — evict the highest partition index first (default;
#:   keeps a fixed low-index subset resident).
#: * ``"size"``      — evict the largest block first (frees the most
#:   space per eviction, keeps more distinct blocks resident).
#: * ``"creation"``  — evict the youngest RDD first (favours long-lived
#:   data like graph edges over per-iteration temporaries).
TIE_BREAKERS = ("partition", "size", "creation")

#: ``(-distance, tie, -partition, -rdd_id)``: ascending order is eviction
#: order, and the id terms make every block's key unique.
EvictKey = tuple[float, float, int, int]


class CacheMonitor(MrdTableView, EvictionPolicy):
    """Greatest-reference-distance eviction for one node."""

    name = "MRD-CacheMonitor"

    def __init__(
        self, node_id: int, manager: MrdManager, tie_breaker: str = "partition"
    ) -> None:
        if tie_breaker not in TIE_BREAKERS:
            raise ValueError(
                f"tie_breaker must be one of {TIE_BREAKERS}, got {tie_breaker!r}"
            )
        self.node_id = node_id
        self.manager = manager
        self.tie_breaker = tie_breaker
        #: Block sizes observed at insertion (for the "size" rule).
        self._sizes: dict[BlockId, float] = {}
        #: Incrementally maintained eviction order: ``(evict_key, id)``
        #: tuples, sorted, covering exactly the blocks this monitor
        #: manages.  ``_evict_key`` contains *no recency term*, so the
        #: order only changes on insert/remove (maintained by binary
        #: insertion/deletion) and on an accepted table broadcast (full
        #: invalidation) — selections walk it in O(victims) instead of
        #: re-sorting the store.  ``None`` = rebuild on next selection.
        self._order: list[tuple[EvictKey, BlockId]] | None = None
        #: Each ordered block's key, as stored in ``_order`` (kept only
        #: while the order is): removal finds its entry without
        #: recomputing the key.
        self._keys: dict[BlockId, EvictKey] = {}

    def _live_distance(self, rdd_id: int) -> float:
        return self.manager.distance(rdd_id)

    def on_insert(self, block: Block) -> None:
        bid = block.id
        self._sizes[bid] = block.size_mb
        if self._order is not None:
            key = self._keys[bid] = self._evict_key(bid)
            insort(self._order, (key, bid))

    def on_access(self, block: Block) -> None:
        """Reads leave the order alone: ``_evict_key`` has no recency term."""

    def on_table_update(self, seq: int, distances: Mapping[int, float]) -> bool:
        applied = super().on_table_update(seq, distances)
        if applied:
            self._order = None
            self._keys = {}
        return applied

    def on_remove(self, block_id: BlockId) -> None:
        order = self._order
        if order is not None:
            key = self._keys.pop(block_id, None)
            i = -1 if key is None else bisect_left(order, (key, block_id))
            if 0 <= i < len(order) and order[i][1] == block_id:
                del order[i]
            else:  # pragma: no cover - defensive: untracked removal
                self._order = None
                self._keys = {}
        self._sizes.pop(block_id, None)

    def eviction_order(self, store: MemoryStore) -> Iterator[BlockId]:
        # Largest distance first (inf ahead of any finite value).  Ties
        # — all blocks of one RDD share a distance — break on
        # *descending partition index*: a stable rule that keeps a fixed
        # subset of a partially-cached RDD resident instead of cycling
        # through it (LRU tie-breaking degenerates to zero hits on
        # cyclic scans of a working set larger than the cache).
        return iter(sorted(store.block_ids(), key=self._evict_key))

    def admit_over(self, block: Block, victims: list[BlockId], store: MemoryStore) -> bool:
        """Only displace blocks that are strictly worse than the newcomer.

        A block whose eviction key ranks at-or-before every victim's
        would itself be the next thing evicted — caching it would churn
        a more valuable resident block for no benefit.
        """
        incoming = self._evict_key(block.id)
        return all(incoming > self._evict_key(v) for v in victims)

    def _evict_key(self, bid: BlockId) -> EvictKey:
        view = self._distances
        if view is not None:
            dist = view.get(bid.rdd_id, INFINITE)
        else:
            dist = self.manager.distance(bid.rdd_id)
        if self.tie_breaker == "size":
            tie = -self._sizes.get(bid, 0.0)
        elif self.tie_breaker == "creation":
            tie = -float(bid.rdd_id)
        else:  # "partition"
            tie = 0.0
        return (-dist, tie, -bid.partition, -bid.rdd_id)

    def _victim_order(self, store: MemoryStore, for_prefetch: bool) -> Iterable[BlockId]:
        """The maintained order, walked in place, once a view is held.

        It ranks exactly the blocks this monitor was told about — every
        block of ``store``, which reports each insert and removal (a
        shared node routes a tenant only its own namespace's blocks).
        Before any table broadcast distances come live from the shared
        manager and can drift without notice, so only a fresh sort over
        ``store`` is safe.  Prefetch selections share the demand order
        (this policy defines no separate prefetch order).
        """
        if self._distances is None:
            return self.eviction_order(store)
        return map(itemgetter(1), self._maintained_order())

    def _maintained_order(self) -> list[tuple[EvictKey, BlockId]]:
        """``_order``, rebuilt from ``_sizes`` after an accepted broadcast."""
        order = self._order
        if order is None:
            keys = self._keys = {bid: self._evict_key(bid) for bid in self._sizes}
            order = self._order = sorted(zip(keys.values(), keys))
        return order

    def select_victims(
        self,
        store: MemoryStore,
        needed_mb: float,
        protect: AbstractSet[BlockId] = frozenset(),
        for_prefetch: bool = False,
        incoming: Block | None = None,
    ) -> list[BlockId] | None:
        """One walk of the maintained order that also decides admission.

        :meth:`admit_over` admits ``incoming`` only if its key ranks after
        every victim's, and victims are taken in key order, so the walk
        refuses at the first eligible entry whose key is not below the
        incoming block's: for a one-victim put that first comparison
        decides.  The keys compared are the ones stored in the order,
        which equal a recomputation (the held view cannot have changed
        since they were stored).  Before the first table view the base
        composition (sorted snapshot, then :meth:`admit_over`) answers.
        """
        if self._distances is None:
            return super().select_victims(
                store, needed_mb, protect, for_prefetch, incoming
            )
        order = self._maintained_order()
        limit = None if incoming is None else self._evict_key(incoming.id)
        victims: list[BlockId] = []
        freed = 0.0
        pinned = store.pinned_ids()
        sizes = self._sizes
        for key, bid in order:
            if freed >= needed_mb:
                return victims
            if bid in protect or bid in pinned:
                continue
            if limit is not None and not key < limit:
                return None
            victims.append(bid)
            freed += sizes[bid]
        return victims if freed >= needed_mb else None
