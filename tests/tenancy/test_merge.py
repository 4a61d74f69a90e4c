"""Property tests: the shared-node merge equals a brute-force reference.

:class:`ArbitratedNodePolicy` builds each tenant's candidate stream by
walking the tenant policy's maintained victim order in place (LRU and
FIFO queues, a CacheMonitor's distance order once a table view is
held).  :func:`reference_merge` is the executable specification it must
match: it ranks each tenant's blocks with the policy's public snapshot
order over a fresh :class:`TenantStoreView`, recomputes every tenant's
footprint from the store, and merges the streams with the arbitration
policy's ``pick`` — rebuilding every candidate at every step.
"""

from __future__ import annotations

from collections.abc import Callable, Set as AbstractSet
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.block import Block, BlockId
from repro.cluster.memory_store import MemoryStore
from repro.core.cache_monitor import CacheMonitor
from repro.core.mrd_table import INFINITE
from repro.core.policy import PrefetchAwareLruPolicy
from repro.policies.base import EvictionPolicy
from repro.policies.fifo import FifoPolicy
from repro.policies.lru import LruPolicy
from repro.tenancy.arbitration import (
    RDD_NAMESPACE_STRIDE,
    ArbitratedNodePolicy,
    ArbitrationPolicy,
    TenantStoreView,
    VictimCandidate,
    build_arbitration,
    owner_of,
)

STRIDE = RDD_NAMESPACE_STRIDE

#: Few distinct distances, so tenants and blocks tie often.
DISTANCES = (1.0, 2.0, 3.0, INFINITE)


class _LiveDistances:
    """The live distance source of monitors that hold no table view."""

    def __init__(self) -> None:
        self.table: dict[int, float] = {}

    def distance(self, rdd_id: int) -> float:
        return self.table.get(rdd_id, INFINITE)


KINDS: dict[str, Callable[[_LiveDistances], EvictionPolicy]] = {
    "lru": lambda live: LruPolicy(),
    "fifo": lambda live: FifoPolicy(),
    "prefetch-lru": lambda live: PrefetchAwareLruPolicy(live),
    "mrd-partition": lambda live: CacheMonitor(0, live, tie_breaker="partition"),
    "mrd-size": lambda live: CacheMonitor(0, live, tie_breaker="size"),
    "mrd-creation": lambda live: CacheMonitor(0, live, tie_breaker="creation"),
}


@dataclass
class _Tenant:
    policy: EvictionPolicy
    share: float
    distance_of: Callable[[int], float | None] | None


def reference_merge(
    tenants: dict[int, _Tenant],
    store: MemoryStore,
    arbitration: ArbitrationPolicy,
    protect: AbstractSet[BlockId],
    for_prefetch: bool,
) -> list[tuple[BlockId, float]]:
    """Every evictable block of a multi-tenant store, in merge order."""
    queues: dict[int, list[BlockId]] = {}
    usage: dict[int, float] = {}
    for app in sorted(tenants):
        policy = tenants[app].policy
        view = TenantStoreView(store, app)
        order = (
            policy.prefetch_eviction_order(view)
            if for_prefetch
            else policy.eviction_order(view)
        )
        queues[app] = [
            b for b in order if b not in protect and not store.is_pinned(b)
        ]
        usage[app] = sum(store.block(b).size_mb for b in view.block_ids())
    merged: list[tuple[BlockId, float]] = []
    while any(queues.values()):
        candidates = []
        for app in sorted(queues):
            if not queues[app]:
                continue
            tenant = tenants[app]
            bid = queues[app][0]
            dist = tenant.distance_of(bid.rdd_id) if tenant.distance_of else None
            candidates.append(
                VictimCandidate(
                    app_index=app,
                    block_id=bid,
                    size_mb=store.block(bid).size_mb,
                    used_mb=usage[app],
                    share=tenant.share,
                    distance=INFINITE if dist is None else dist,
                )
            )
        pick = arbitration.pick(candidates)
        merged.append((pick.block_id, pick.size_mb))
        usage[pick.app_index] -= pick.size_mb
        queues[pick.app_index].pop(0)
    return merged


def reference_select(
    merged: list[tuple[BlockId, float]], needed_mb: float
) -> list[BlockId] | None:
    victims: list[BlockId] = []
    freed = 0.0
    for bid, size in merged:
        if freed >= needed_mb:
            break
        victims.append(bid)
        freed += size
    return victims if freed >= needed_mb else None


class _Ordered(ArbitrationPolicy):
    """Delegates to an arbitration policy, asserting its input contract:
    candidates arrive sorted by application index, one per tenant."""

    def __init__(self, inner: ArbitrationPolicy) -> None:
        self.inner = inner

    def pick(self, candidates: list[VictimCandidate]) -> VictimCandidate:
        apps = [c.app_index for c in candidates]
        assert apps == sorted(set(apps))
        return self.inner.pick(candidates)


class _Node:
    """One shared store, its composite policy and the test's own
    registry of what each tenant was registered with."""

    def __init__(self, arbitration: str, columnar: bool) -> None:
        self.live = _LiveDistances()
        self.policy = ArbitratedNodePolicy(_Ordered(build_arbitration(arbitration)))
        self.store = MemoryStore(24.0, self.policy, columnar=columnar)
        self.tenants: dict[int, _Tenant] = {}
        self.seq = 0

    def register(self, app: int, kind: str, share: float) -> None:
        policy = KINDS[kind](self.live)
        distance_of = getattr(policy, "lookup_distance", None)
        self.policy.register_tenant(app, policy, share=share, distance_of=distance_of)
        self.tenants[app] = _Tenant(policy, share, distance_of)

    def deregister(self, app: int) -> None:
        """Leave the node the way the engine's teardown does: the
        namespace's blocks go first, then the tenant."""
        store = self.store
        for bid in [b for b in store.block_ids() if owner_of(b.rdd_id) == app]:
            while store.is_pinned(bid):
                store.unpin(bid)
            store.remove(bid)
        self.policy.deregister_tenant(app)
        del self.tenants[app]

    def broadcast(self, app: int, stale: bool) -> None:
        """Deliver a snapshot of the live table to one tenant."""
        policy = self.tenants[app].policy
        if not stale:
            self.seq += 1
        policy.on_table_update(self.seq - 1 if stale else self.seq, dict(self.live.table))

    def check(self, needed_mb: float, protect: frozenset[BlockId], for_prefetch: bool) -> None:
        tenants, store, policy = self.tenants, self.store, self.policy
        arbitration = policy.arbitration
        for prefetch in (False, True):
            merged = reference_merge(tenants, store, arbitration, frozenset(), prefetch)
            order = (
                policy.prefetch_eviction_order(store)
                if prefetch
                else policy.eviction_order(store)
            )
            assert list(order) == [bid for bid, _ in merged]
        merged = reference_merge(tenants, store, arbitration, protect, for_prefetch)
        assert policy.select_victims(
            store, needed_mb, protect, for_prefetch
        ) == reference_select(merged, needed_mb)


_PUT = st.tuples(
    st.just("put"),
    st.integers(0, 3),
    st.integers(0, 2),
    st.integers(0, 3),
    st.sampled_from([1.0, 2.0, 3.0]),
    st.booleans(),
)
_DRIFT = st.tuples(st.just("drift"), st.integers(0, 2), st.sampled_from(DISTANCES))
#: Puts and live-distance drift dominate, so tenants hold several
#: blocks whose ranking changes both before and after a broadcast.
_OP = st.one_of(
    _PUT,
    _PUT,
    _PUT,
    _DRIFT,
    _DRIFT,
    st.tuples(st.sampled_from(["get", "remove", "pin", "unpin"]), st.integers(0, 1000)),
    st.tuples(st.just("broadcast"), st.integers(0, 3), st.booleans()),
    st.tuples(st.just("arrive"), st.integers(0, 3), st.sampled_from(sorted(KINDS))),
    st.tuples(st.just("leave"), st.integers(0, 3)),
)


def _apply(node: _Node, op: tuple) -> None:
    store = node.store
    name = op[0]
    if name == "put":
        _, app, rdd, part, size, prefetch = op
        if app in node.tenants:
            bid = BlockId(app * STRIDE + rdd, part)
            store.put(Block(bid, size, f"r{rdd}"), prefetch=prefetch)
    elif name in ("get", "remove", "pin", "unpin"):
        resident = sorted(store.block_ids(), key=lambda b: (b.rdd_id, b.partition))
        if not resident:
            return
        bid = resident[op[1] % len(resident)]
        if name == "get":
            store.get(bid)
        elif name == "pin":
            store.pin(bid)
        elif name == "unpin" and store.is_pinned(bid):
            store.unpin(bid)
        elif name == "remove" and not store.is_pinned(bid):
            store.remove(bid)
    elif name == "drift":
        _, rdd, dist = op
        for app in node.tenants:
            node.live.table[app * STRIDE + rdd] = dist
    elif name == "broadcast":
        if op[1] in node.tenants:
            node.broadcast(op[1], op[2])
    elif name == "arrive":
        if op[1] not in node.tenants:
            node.register(op[1], op[2], 1.0 + op[1] % 3)
    elif name == "leave":
        if op[1] in node.tenants:
            node.deregister(op[1])


@settings(max_examples=60, deadline=None)
@given(
    arbitration=st.sampled_from(["static", "global-mrd"]),
    columnar=st.booleans(),
    kinds=st.lists(st.sampled_from(sorted(KINDS)), min_size=2, max_size=3),
    fill=st.lists(_PUT, min_size=6, max_size=16),
    ops=st.lists(_OP, min_size=4, max_size=30),
    data=st.data(),
)
def test_merge_matches_reference(arbitration, columnar, kinds, fill, ops, data):
    node = _Node(arbitration, columnar)
    for app, kind in enumerate(kinds):
        node.register(app, kind, 1.0 + app % 3)
    for op in fill:
        _apply(node, op)
    store = node.store
    for op in ops:
        _apply(node, op)
        if len(node.tenants) < 2:
            continue
        resident = sorted(store.block_ids(), key=lambda b: (b.rdd_id, b.partition))
        protect = frozenset(
            data.draw(st.lists(st.sampled_from(resident), max_size=3))
            if resident
            else ()
        )
        node.check(
            data.draw(st.sampled_from([0.5, 2.0, 5.0, 12.0, 40.0])),
            protect,
            data.draw(st.booleans()),
        )


class _CountingStore(MemoryStore):
    """A store that counts full scans of its block ids."""

    scans = 0

    def block_ids(self):
        self.scans += 1
        return super().block_ids()


def test_selection_with_delivered_views_never_scans_the_store():
    """Two MRD tenants holding table views and one LRU tenant: the
    merge walks each tenant's maintained order, never the shared
    store's block ids (one scan per tenant per selection used to rank
    each monitor's blocks)."""
    live = _LiveDistances()
    policy = ArbitratedNodePolicy(build_arbitration("global-mrd"))
    store = _CountingStore(30.0, policy)
    for app in (0, 1):
        monitor = CacheMonitor(0, live)
        policy.register_tenant(app, monitor, distance_of=monitor.lookup_distance)
        monitor.on_table_update(0, {app * STRIDE + r: float(r) for r in range(3)})
    policy.register_tenant(2, LruPolicy())
    for part in range(5):
        for app in (0, 1, 2):
            store.put(Block(BlockId(app * STRIDE + part % 3, part), 2.0, "r"))
    assert store.free_mb == 0.0
    store.scans = 0
    result = store.put(Block(BlockId(STRIDE + 1, 9), 5.0, "r"))
    assert result.stored and len(result.evicted) == 3
    for for_prefetch in (False, True):
        assert policy.select_victims(store, 9.0, for_prefetch=for_prefetch)
    assert store.scans == 0


class _Rebuilt(ArbitrationPolicy):
    """Hands back a changed copy of the candidate its inner policy picks."""

    def __init__(self, inner: ArbitrationPolicy) -> None:
        self.inner = inner

    def pick(self, candidates: list[VictimCandidate]) -> VictimCandidate:
        return self.inner.pick(candidates)._replace(used_mb=0.0, distance=-1.0)


def test_pick_may_return_a_rebuilt_candidate():
    """The merge tracks the picked tenant by application index and keeps
    its own footprint accounting, whatever object ``pick`` returns."""
    orders = []
    for arbitration in (build_arbitration("static"), _Rebuilt(build_arbitration("static"))):
        policy = ArbitratedNodePolicy(arbitration)
        store = MemoryStore(40.0, policy)
        for app in (0, 1, 2):
            policy.register_tenant(app, LruPolicy(), share=1.0 + app)
        for part in range(4):
            for app in (0, 1, 2):
                store.put(Block(BlockId(app * STRIDE, part), 1.0 + app, "r"))
        orders.append(list(policy.eviction_order(store)))
    assert orders[0] == orders[1]
    assert len(orders[0]) == 12
