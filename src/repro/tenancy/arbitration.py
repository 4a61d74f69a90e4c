"""Cross-application cache arbitration on a shared cluster.

On a multi-tenant cluster every node's memory store holds blocks from
several applications at once.  Each application still ranks *its own*
blocks with its own eviction policy (LRU recency, MRD distances, …) —
but when an insertion forces an eviction, someone must decide *which
application* gives up space.  That decision is the
:class:`ArbitrationPolicy`, and :class:`ArbitratedNodePolicy` is the
composite per-node :class:`~repro.policies.base.EvictionPolicy` that
wires the two layers together:

* every ``on_insert``/``on_access``/``on_remove``/``on_miss`` event is
  routed to the owning application's tenant policy, so tenant metadata
  (recency queues, distance views) stays application-local;
* victim selection merges the tenants' candidate streams — each tenant
  proposes its next victim over a namespace-filtered
  :class:`TenantStoreView` — and the arbitration policy picks which
  application's candidate is evicted at every step;
* with a single registered tenant everything delegates verbatim to the
  tenant policy over the raw store, which is what makes one application
  through the tenancy layer byte-identical to the standalone engine.

Application namespacing: application ``k`` builds its DAG with RDD ids
starting at ``k * RDD_NAMESPACE_STRIDE`` (see ``SparkContext``'s
``first_rdd_id``), so a block's owner is recoverable from its id alone
— no per-block tagging anywhere in the cache layer.
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Iterable, Iterator, Set as AbstractSet
from typing import TYPE_CHECKING, NamedTuple

from repro.core.mrd_table import INFINITE
from repro.policies.base import EvictionPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.block import Block, BlockId
    from repro.cluster.memory_store import MemoryStore

#: RDD-id namespace width per application.  Application ``k`` owns ids
#: ``[k * STRIDE, (k + 1) * STRIDE)``; a single application never comes
#: close to a million RDDs, and app 0 at offset 0 keeps standalone runs
#: unchanged.
RDD_NAMESPACE_STRIDE = 1_000_000


def owner_of(rdd_id: int) -> int:
    """Application index owning ``rdd_id`` (0 for standalone runs)."""
    return rdd_id // RDD_NAMESPACE_STRIDE


def namespace_of(app_index: int) -> tuple[int, int]:
    """``[lo, hi)`` RDD-id range owned by application ``app_index``."""
    lo = app_index * RDD_NAMESPACE_STRIDE
    return lo, lo + RDD_NAMESPACE_STRIDE


class TenantStoreView:
    """Read-only view of a shared store filtered to one app's namespace.

    Tenant policies whose eviction order scans the store (MRD's
    CacheMonitor sorts ``store.block_ids()`` until its first table view
    arrives) must only ever see their own blocks — a foreign block is
    not theirs to rank.  Occupancy
    (``used_mb``/``free_mb``/``capacity_mb``) deliberately reports the
    *shared* store's numbers: fit decisions depend on physical free
    space, not on a tenant's logical slice.
    """

    def __init__(self, store: MemoryStore, app_index: int) -> None:
        self._store = store
        self._lo, self._hi = namespace_of(app_index)

    def _owned(self, block_id: BlockId) -> bool:
        return self._lo <= block_id.rdd_id < self._hi

    def block_ids(self) -> Iterator[BlockId]:
        return (b for b in self._store.block_ids() if self._owned(b))

    def blocks(self) -> Iterator[Block]:
        return (b for b in self._store.blocks() if self._owned(b.id))

    def block(self, block_id: BlockId) -> Block:
        return self._store.block(block_id)

    def is_pinned(self, block_id: BlockId) -> bool:
        return self._store.is_pinned(block_id)

    def pinned_ids(self) -> AbstractSet[BlockId]:
        return self._store.pinned_ids()

    def __contains__(self, block_id: BlockId) -> bool:
        return self._owned(block_id) and block_id in self._store

    def __len__(self) -> int:
        return sum(1 for _ in self.block_ids())

    @property
    def used_mb(self) -> float:
        return self._store.used_mb

    @property
    def free_mb(self) -> float:
        return self._store.free_mb

    @property
    def free_fraction(self) -> float:
        return self._store.free_fraction

    @property
    def capacity_mb(self) -> float:
        return self._store.capacity_mb


class VictimCandidate(NamedTuple):
    """One application's next eviction candidate, as seen by arbitration.

    ``used_mb`` is the application's current footprint on this node
    *minus* victims already chosen earlier in the same selection, so an
    arbitration policy sees usage shrink as it keeps picking the same
    tenant.  ``distance`` is the candidate block's reference distance
    under its own scheme (``INFINITE`` when the scheme tracks none —
    an untracked block is treated as already dead).
    """

    app_index: int
    block_id: BlockId
    size_mb: float
    used_mb: float
    share: float
    distance: float


class ArbitrationPolicy(abc.ABC):
    """Decides which application's candidate is evicted at each step."""

    name: str = "arbitration"

    @abc.abstractmethod
    def pick(self, candidates: list[VictimCandidate]) -> VictimCandidate:
        """Choose the victim among one candidate per application.

        ``candidates`` is non-empty and sorted by ``app_index``;
        implementations must be deterministic (break every tie).
        """


class StaticShares(ArbitrationPolicy):
    """Evict from the application furthest over its configured share.

    Each application carries a share weight (``AppSpec.share``); the
    victim is the tenant with the largest ``used_mb / share`` ratio —
    proportional-share pressure, insensitive to how many tenants are
    active.  Ties break on larger usage, then lower application index.
    """

    name = "static"

    def pick(self, candidates: list[VictimCandidate]) -> VictimCandidate:
        return max(
            candidates,
            key=lambda c: (c.used_mb / c.share, c.used_mb, -c.app_index),
        )


class GlobalDistance(ArbitrationPolicy):
    """Global cross-application reference-distance ordering.

    The multi-tenant generalization of the paper's eviction rule: the
    block evicted is the one whose *own application* will not need it
    for the longest — each tenant's candidate already is its worst
    block, so arbitration simply takes the candidate with the greatest
    reference distance, infinite first.  Applications whose scheme
    tracks no distances (LRU tenants) report ``INFINITE`` and are
    preferred victims, exactly like untracked RDDs under MRD.  Ties
    break on larger usage, then lower application index.
    """

    name = "global-mrd"

    def pick(self, candidates: list[VictimCandidate]) -> VictimCandidate:
        return max(
            candidates,
            key=lambda c: (c.distance, c.used_mb, -c.app_index),
        )


#: Arbitration policies the CLI and experiment drivers resolve against.
ARBITRATIONS: dict[str, type[ArbitrationPolicy]] = {
    "static": StaticShares,
    "global-mrd": GlobalDistance,
}


def build_arbitration(value: str | ArbitrationPolicy) -> ArbitrationPolicy:
    """Coerce a name or instance into an :class:`ArbitrationPolicy`."""
    if isinstance(value, ArbitrationPolicy):
        return value
    try:
        return ARBITRATIONS[value]()
    except KeyError:
        raise ValueError(
            f"unknown arbitration {value!r}; choose from {sorted(ARBITRATIONS)}"
        ) from None


class _Tenant:
    """Per-application state held by one node's composite policy."""

    __slots__ = ("policy", "share", "distance_of", "sizes", "used_mb", "view")

    def __init__(
        self,
        policy: EvictionPolicy,
        share: float,
        distance_of: Callable[[int], float | None],
        view: TenantStoreView | None,
    ) -> None:
        self.policy = policy
        self.share = share
        self.distance_of = distance_of
        #: Sizes of this tenant's resident blocks (the store has already
        #: dropped a block when ``on_remove`` fires, so the composite
        #: keeps its own size map to maintain ``used_mb`` incrementally).
        self.sizes: dict[BlockId, float] = {}
        self.used_mb = 0.0
        #: This tenant's namespace view of the bound store, built once.
        self.view = view


class ArbitratedNodePolicy(EvictionPolicy):
    """Composite per-node policy multiplexing tenant eviction policies."""

    name = "arbitrated"

    def __init__(self, arbitration: ArbitrationPolicy) -> None:
        self.arbitration = arbitration
        #: app_index -> tenant, in app-index order (the order candidates
        #: reach :meth:`ArbitrationPolicy.pick` in).
        self._tenants: dict[int, _Tenant] = {}
        #: The only tenant while exactly one is registered, else None.
        self._single: _Tenant | None = None
        #: The shared store this composite manages (columnar or not),
        #: remembered so late-arriving tenants can be bound to it.
        self._raw_store: MemoryStore | None = None

    def bind_store(self, store: MemoryStore) -> None:
        """Bind the shared store and forward it to every tenant policy.

        Tenant policies maintain key columns on the shared columnar
        store for their own blocks; the single-tenant fast path then
        selects victims in batch exactly like a standalone node.
        """
        super().bind_store(store)
        self._raw_store = store
        for app_index, tenant in self._tenants.items():
            tenant.policy.bind_store(store)
            tenant.view = TenantStoreView(store, app_index)

    # ------------------------------------------------------------------
    # tenant lifecycle (driven by the multi-tenant engine)
    # ------------------------------------------------------------------
    def register_tenant(
        self,
        app_index: int,
        policy: EvictionPolicy,
        share: float = 1.0,
        distance_of: Callable[[int], float | None] | None = None,
    ) -> None:
        if app_index in self._tenants:
            raise ValueError(f"application {app_index} already registered")
        if share <= 0:
            raise ValueError("share must be positive")
        view = None
        if self._raw_store is not None:
            policy.bind_store(self._raw_store)
            view = TenantStoreView(self._raw_store, app_index)
        self._tenants[app_index] = _Tenant(
            policy,
            share,
            distance_of if distance_of is not None else _no_distance,
            view,
        )
        self._tenants = dict(sorted(self._tenants.items()))
        self._tenants_changed()

    def deregister_tenant(self, app_index: int) -> None:
        self._tenants.pop(app_index, None)
        self._tenants_changed()

    def _tenants_changed(self) -> None:
        tenants = self._tenants
        self._single = next(iter(tenants.values())) if len(tenants) == 1 else None

    def tenant_policy(self, app_index: int) -> EvictionPolicy:
        return self._tenants[app_index].policy

    def _tenant_of(self, rdd_id: int) -> _Tenant | None:
        return self._tenants.get(owner_of(rdd_id))

    # ------------------------------------------------------------------
    # event routing
    # ------------------------------------------------------------------
    def on_insert(self, block: Block) -> None:
        tenant = self._tenant_of(block.id.rdd_id)
        if tenant is None:
            return
        tenant.sizes[block.id] = block.size_mb
        tenant.used_mb += block.size_mb
        tenant.policy.on_insert(block)

    def on_access(self, block: Block) -> None:
        tenant = self._tenant_of(block.id.rdd_id)
        if tenant is not None:
            tenant.policy.on_access(block)

    def on_remove(self, block_id: BlockId) -> None:
        tenant = self._tenant_of(block_id.rdd_id)
        if tenant is None:
            return
        size = tenant.sizes.pop(block_id, None)
        if size is not None:
            tenant.used_mb -= size
            if tenant.used_mb < 1e-9:
                tenant.used_mb = 0.0
        tenant.policy.on_remove(block_id)

    def on_miss(self, block_id: BlockId) -> None:
        tenant = self._tenant_of(block_id.rdd_id)
        if tenant is not None:
            tenant.policy.on_miss(block_id)

    # ------------------------------------------------------------------
    # victim selection
    # ------------------------------------------------------------------
    def eviction_order(self, store: MemoryStore) -> Iterable[BlockId]:
        single = self._single
        if single is not None:
            return single.policy.eviction_order(store)
        # Snapshot: the merge walks tenant orders in place.
        return iter([bid for bid, _ in self._arbitrated(store, frozenset(), False)])

    def prefetch_eviction_order(self, store: MemoryStore) -> Iterable[BlockId]:
        single = self._single
        if single is not None:
            return single.policy.prefetch_eviction_order(store)
        return iter([bid for bid, _ in self._arbitrated(store, frozenset(), True)])

    def select_victims(
        self,
        store: MemoryStore,
        needed_mb: float,
        protect: AbstractSet[BlockId] = frozenset(),
        for_prefetch: bool = False,
        incoming: Block | None = None,
    ) -> list[BlockId] | None:
        single = self._single
        if single is not None:
            # Byte-identity fast path: with one tenant the composite is
            # a transparent wrapper over the tenant policy on the raw
            # store — same victims, same order, same refusals.  A block
            # no tenant owns has no admission rule to answer to.
            if incoming is not None and owner_of(incoming.id.rdd_id) not in self._tenants:
                incoming = None
            return single.policy.select_victims(
                store, needed_mb, protect, for_prefetch, incoming
            )
        victims: list[BlockId] = []
        freed = 0.0
        stream = self._arbitrated(store, protect, for_prefetch)
        while freed < needed_mb:
            nxt = next(stream, None)
            if nxt is None:
                return None
            bid, size = nxt
            victims.append(bid)
            freed += size
        return self._admitted(victims, incoming, store, for_prefetch)

    def admit_over(
        self, block: Block, victims: list[BlockId], store: MemoryStore
    ) -> bool:
        return self._admit(block, victims, store, prefetch=False)

    def admit_prefetch_over(
        self, block: Block, victims: list[BlockId], store: MemoryStore
    ) -> bool:
        return self._admit(block, victims, store, prefetch=True)

    def _admit(
        self, block: Block, victims: list[BlockId], store: MemoryStore, prefetch: bool
    ) -> bool:
        own = owner_of(block.id.rdd_id)
        tenant = self._tenants.get(own)
        if tenant is None:
            return True
        if self._single is not None:
            if prefetch:
                return tenant.policy.admit_prefetch_over(block, victims, store)
            return tenant.policy.admit_over(block, victims, store)
        # The owner only judges the displacement of its *own* blocks:
        # foreign victims were conceded by arbitration, and refusing an
        # insertion because another application loses cache would let a
        # tenant veto the sharing policy.
        same = [v for v in victims if owner_of(v.rdd_id) == own]
        view = tenant.view
        if prefetch:
            return tenant.policy.admit_prefetch_over(block, same, view)
        return tenant.policy.admit_over(block, same, view)

    # ------------------------------------------------------------------
    def _arbitrated(
        self, store: MemoryStore, protect: AbstractSet[BlockId], for_prefetch: bool
    ) -> Iterator[tuple[BlockId, float]]:
        """Merge tenant candidate streams under the arbitration policy.

        Each tenant's stream walks its policy's own victim order in
        place over the tenant's namespace view (``_victim_order``: the
        recency queue of LRU/FIFO, a CacheMonitor's maintained distance
        order once a table view is held, the public eviction order of
        any other policy).  Arbitration repeatedly picks which tenant's
        head candidate is evicted next, and only the picked tenant's
        stream advances, so a selection costs O(tenants + victims)
        candidate steps.  Yields ``(block_id, size_mb)`` pairs of
        evictable (unpinned, unprotected) blocks, worst first; the
        caller must stop walking before the store changes.
        """
        pinned = store.pinned_ids()
        block = store.block

        def head(
            app_index: int, tenant: _Tenant, walk: Iterator[BlockId], used_mb: float
        ) -> VictimCandidate | None:
            for bid in walk:
                if bid in protect or bid in pinned:
                    continue
                dist = tenant.distance_of(bid.rdd_id)
                return VictimCandidate(
                    app_index,
                    bid,
                    block(bid).size_mb,
                    used_mb,
                    tenant.share,
                    INFINITE if dist is None else dist,
                )
            return None

        walks: dict[int, Iterator[BlockId]] = {}
        candidates: list[VictimCandidate] = []
        for app_index, tenant in self._tenants.items():
            walk = iter(tenant.policy._victim_order(tenant.view, for_prefetch))
            cand = head(app_index, tenant, walk, tenant.used_mb)
            if cand is not None:
                walks[app_index] = walk
                candidates.append(cand)

        pick = self.arbitration.pick
        while candidates:
            chosen = pick(candidates)
            yield chosen.block_id, chosen.size_mb
            # Find the slot by tenant, not by equality: a custom pick may
            # hand back a rebuilt candidate.
            app_index = chosen.app_index
            i = next(i for i, c in enumerate(candidates) if c.app_index == app_index)
            nxt = head(
                app_index,
                self._tenants[app_index],
                walks[app_index],
                candidates[i].used_mb - chosen.size_mb,
            )
            if nxt is None:
                del candidates[i]
            else:
                candidates[i] = nxt


def _no_distance(rdd_id: int) -> float | None:
    return None
