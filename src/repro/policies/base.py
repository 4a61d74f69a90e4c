"""Cache-policy protocol shared by all eviction policies.

A policy instance manages the metadata for *one* node's memory store
(mirroring the paper, where eviction decisions are made locally by each
CacheMonitor / BlockManager).  DAG-aware policies additionally receive
stage-advance notifications routed from the centralized manager so they
can update reference counts / distances as the application progresses.

The store calls the policy on every insert/access/remove; when space is
needed it asks one question, :meth:`EvictionPolicy.select_victims` with
the incoming block: which victims, if the block is admitted at all.
Policies never mutate the store directly — they only rank blocks.
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Iterable, Mapping, Set as AbstractSet
from typing import TYPE_CHECKING


if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.block import Block, BlockId
    from repro.cluster.memory_store import MemoryStore


class BatchUnsupported:
    """Sentinel: the policy cannot answer this selection in batch.

    Distinct from ``None`` (a *refusal*: the evictable blocks cannot
    cover the request) — receiving this sentinel means the caller must
    fall back to the per-object reference walk.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "BATCH_UNSUPPORTED"


#: Shared sentinel returned by :meth:`EvictionPolicy.select_victims_batch`.
BATCH_UNSUPPORTED = BatchUnsupported()


class EvictionPolicy(abc.ABC):
    """Ranks cached blocks for eviction on a single node."""

    #: Human-readable policy name used in reports and figures.
    name: str = "base"

    #: Columnar store this policy keeps key columns on (None = object path).
    _store: MemoryStore | None = None

    def bind_store(self, store: MemoryStore) -> None:
        """The store this policy manages was constructed.

        Vectorized policies remember columnar stores so their
        ``on_insert``/``on_access`` hooks can maintain the store's key
        columns; a non-columnar store leaves the policy on the
        per-object reference path.
        """
        self._store = store if store.columnar else None

    @abc.abstractmethod
    def on_insert(self, block: Block) -> None:
        """A block was inserted into the store."""

    @abc.abstractmethod
    def on_access(self, block: Block) -> None:
        """A cached block was read (cache hit)."""

    @abc.abstractmethod
    def on_remove(self, block_id: BlockId) -> None:
        """A block left the store (evicted or purged)."""

    def on_miss(self, block_id: BlockId) -> None:
        """A read request missed the store (optional hook).

        Lets trace-tracking policies observe the complete access
        sequence, not just the hits.
        """

    @abc.abstractmethod
    def eviction_order(self, store: MemoryStore) -> Iterable[BlockId]:
        """Blocks in the order they should be evicted (worst first)."""

    def advance_stage(self, seq: int) -> None:
        """The application moved to active stage ``seq`` (optional hook)."""

    def on_table_update(self, seq: int, distances: Mapping[int, float]) -> bool:
        """A driver distance-table broadcast reached this node.

        Distance-view policies (MRD's CacheMonitor) replace their local
        reference-distance snapshot here; everyone else ignores it.
        Returns ``False`` when the broadcast was older than the view
        already held (a stale, reordered delivery), ``True`` otherwise.
        """
        return True

    def admit_over(self, block: Block, victims: list[BlockId], store: MemoryStore) -> bool:
        """Should ``block`` be inserted at the cost of evicting ``victims``?

        Default (Spark semantics): always admit — insertion pressure
        simply evicts whatever the policy ranks worst.  Value-aware
        policies override this to refuse insertions that would evict
        more valuable blocks (the CacheMonitor's "local decision" when
        memory pressure forces an eviction), which is what keeps a
        stable resident subset instead of churning it.
        """
        return True

    def prefetch_eviction_order(self, store: MemoryStore) -> Iterable[BlockId]:
        """Victim order for *prefetch-triggered* insertions.

        Defaults to the normal eviction order.  The paper's prefetching
        workflow evicts the largest-reference-distance block when a
        prefetch forces memory pressure, even when demand evictions
        follow the default LRU — the prefetch-only MRD variant overrides
        this hook to get that behaviour.
        """
        return self.eviction_order(store)

    def admit_prefetch_over(self, block: Block, victims: list[BlockId], store: MemoryStore) -> bool:
        """Admission rule for prefetch-triggered insertions."""
        return self.admit_over(block, victims, store)

    def select_victims(
        self,
        store: MemoryStore,
        needed_mb: float,
        protect: AbstractSet[BlockId] = frozenset(),
        for_prefetch: bool = False,
        incoming: Block | None = None,
    ) -> list[BlockId] | None:
        """Pick blocks to evict to free ``needed_mb`` for ``incoming``.

        Walks :meth:`eviction_order` (or :meth:`prefetch_eviction_order`
        when ``for_prefetch``), skipping pinned/protected blocks, until
        enough space is accumulated.  Returns ``None`` when the
        evictable blocks cannot cover the request, or when ``incoming``
        is given and the policy would not admit it over the victims
        (:meth:`admit_over`, or :meth:`admit_prefetch_over` when
        ``for_prefetch``); the caller then refuses the insertion, like
        Spark's ``MemoryStore``.  This is the one question
        :meth:`MemoryStore.put` asks when it needs space.

        Policies that maintain key columns on a columnar store answer
        via :meth:`select_victims_batch` first; this walk is the
        executable reference spec the batch path must match
        byte-for-byte, and the fallback whenever batching is
        unsupported for the given store.
        """
        victims = self.select_victims_batch(store, needed_mb, protect, for_prefetch)
        if isinstance(victims, BatchUnsupported):
            victims = self._select_victims_walk(store, needed_mb, protect, for_prefetch)
        return self._admitted(victims, incoming, store, for_prefetch)

    def _admitted(
        self,
        victims: list[BlockId] | None,
        incoming: Block | None,
        store: MemoryStore,
        for_prefetch: bool,
    ) -> list[BlockId] | None:
        """``victims``, or ``None`` if the admission rule refuses ``incoming``.

        The composition every policy without a fused selection uses: the
        walk's victims, then :meth:`admit_over` (or
        :meth:`admit_prefetch_over`) over exactly those victims.
        """
        if victims is None or incoming is None:
            return victims
        if for_prefetch:
            admit = self.admit_prefetch_over(incoming, victims, store)
        else:
            admit = self.admit_over(incoming, victims, store)
        return victims if admit else None

    def _select_victims_walk(
        self,
        store: MemoryStore,
        needed_mb: float,
        protect: AbstractSet[BlockId] = frozenset(),
        for_prefetch: bool = False,
    ) -> list[BlockId] | None:
        """The per-object reference walk, without the batch attempt.

        Policies whose batch path loses to the object sort on small
        stores call this directly below their engagement threshold.
        """
        return walk_victims(
            self._victim_order(store, for_prefetch), store, needed_mb, protect
        )

    def _victim_order(self, store: MemoryStore, for_prefetch: bool) -> Iterable[BlockId]:
        """The order one selection walks, worst first.

        Defaults to the public :meth:`eviction_order` (or
        :meth:`prefetch_eviction_order`), which are snapshots.  Policies
        that keep their order up to date return it *in place* — no copy,
        no sort — so a caller must finish walking before the store
        changes.  Both :meth:`_select_victims_walk` and the shared-node
        merge (:class:`~repro.tenancy.arbitration.ArbitratedNodePolicy`)
        walk this order.
        """
        if for_prefetch:
            return self.prefetch_eviction_order(store)
        return self.eviction_order(store)

    def select_victims_batch(
        self,
        store: MemoryStore,
        needed_mb: float,
        protect: AbstractSet[BlockId] = frozenset(),
        for_prefetch: bool = False,
    ) -> list[BlockId] | None | BatchUnsupported:
        """Vectorized victim selection over the store's columns.

        Policies with a key column override this to select victims via
        :mod:`repro.policies.vectorized`; the result must be
        byte-identical to :meth:`select_victims`'s reference walk.
        Overrides import that module inside the call, so numpy loads
        only once a batch selection runs, and look its functions up on
        the module each call rather than binding them at import.
        Return :data:`BATCH_UNSUPPORTED` (the default) to fall back to
        the per-object path — e.g. when ``store`` is not the bound
        columnar store (a tenant view) or required keys are missing.
        """
        return BATCH_UNSUPPORTED


def walk_victims(
    order: Iterable[BlockId],
    store: MemoryStore,
    needed_mb: float,
    protect: AbstractSet[BlockId] = frozenset(),
) -> list[BlockId] | None:
    """Take blocks from ``order`` until ``needed_mb`` is freed.

    Pinned and protected blocks are skipped; ``None`` means the
    evictable blocks in ``order`` cannot cover the request.
    """
    victims: list[BlockId] = []
    freed = 0.0
    pinned = store.pinned_ids()
    block = store.block
    for bid in order:
        if freed >= needed_mb:
            break
        if bid in protect or bid in pinned:
            continue
        victims.append(bid)
        freed += block(bid).size_mb
    if freed >= needed_mb:
        return victims
    return None


PolicyFactory = Callable[[int], EvictionPolicy]
"""Creates the policy instance for node ``node_id``."""
