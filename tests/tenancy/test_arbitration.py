"""Cross-application arbitration: unit tests over a shared store."""

from __future__ import annotations

import pytest

from repro.cluster.block import Block, BlockId
from repro.cluster.memory_store import MemoryStore
from repro.policies.lru import LruPolicy
from repro.tenancy.arbitration import (
    RDD_NAMESPACE_STRIDE,
    ArbitratedNodePolicy,
    GlobalDistance,
    StaticShares,
    TenantStoreView,
    VictimCandidate,
    build_arbitration,
    namespace_of,
    owner_of,
)

STRIDE = RDD_NAMESPACE_STRIDE


def bid(app: int, rdd: int, part: int = 0) -> BlockId:
    return BlockId(app * STRIDE + rdd, part)


def block(app: int, rdd: int, part: int = 0, size: float = 10.0) -> Block:
    return Block(id=bid(app, rdd, part), size_mb=size, rdd_name=f"r{rdd}")


def make_store(arbitration="static", capacity=100.0, tenants=(0, 1), shares=None,
               distances=None):
    policy = ArbitratedNodePolicy(build_arbitration(arbitration))
    store = MemoryStore(capacity_mb=capacity, policy=policy)
    for app in tenants:
        distance_map = (distances or {}).get(app)
        policy.register_tenant(
            app,
            LruPolicy(),
            share=(shares or {}).get(app, 1.0),
            distance_of=(
                (lambda rid, m=distance_map: m.get(rid))
                if distance_map is not None
                else None
            ),
        )
    return store, policy


class TestNamespacing:
    def test_owner_and_range(self):
        assert owner_of(5) == 0
        assert owner_of(2 * STRIDE + 7) == 2
        lo, hi = namespace_of(3)
        assert lo == 3 * STRIDE and hi == 4 * STRIDE

    def test_view_filters_foreign_blocks(self):
        store, _ = make_store()
        store.put(block(0, 1))
        store.put(block(1, 1))
        view = TenantStoreView(store, 0)
        assert list(view.block_ids()) == [bid(0, 1)]
        assert len(view) == 1
        assert bid(0, 1) in view and bid(1, 1) not in view
        # Occupancy is the SHARED store's: fit decisions are physical.
        assert view.used_mb == store.used_mb == 20.0
        assert view.capacity_mb == store.capacity_mb


class TestTenantLifecycle:
    def test_duplicate_registration_rejected(self):
        _, policy = make_store(tenants=(0,))
        with pytest.raises(ValueError, match="already registered"):
            policy.register_tenant(0, LruPolicy())

    def test_non_positive_share_rejected(self):
        _, policy = make_store(tenants=(0,))
        with pytest.raises(ValueError, match="share"):
            policy.register_tenant(1, LruPolicy(), share=0.0)

    def test_usage_tracked_through_insert_and_remove(self):
        store, policy = make_store()
        store.put(block(0, 1, size=30.0))
        store.put(block(1, 1, size=20.0))
        assert policy._tenants[0].used_mb == 30.0
        assert policy._tenants[1].used_mb == 20.0
        store.remove(bid(0, 1))
        assert policy._tenants[0].used_mb == 0.0
        policy.deregister_tenant(1)
        assert 1 not in policy._tenants


class TestStaticShares:
    def test_evicts_from_heaviest_user(self):
        store, _ = make_store(capacity=100.0)
        for p in range(6):
            store.put(block(0, 1, p))   # app 0: 60 MB
        for p in range(3):
            store.put(block(1, 1, p))   # app 1: 30 MB
        result = store.put(block(1, 2, 0, size=20.0))
        assert result.stored
        # App 0 is furthest over its (equal) share: it pays.
        assert all(owner_of(b.id.rdd_id) == 0 for b in result.evicted)

    def test_share_weight_protects_a_tenant(self):
        # Same footprints, but app 0 is entitled to 3x the cache: the
        # weighted pressure now points at app 1.
        store, _ = make_store(capacity=100.0, shares={0: 3.0, 1: 1.0})
        for p in range(6):
            store.put(block(0, 1, p))
        for p in range(3):
            store.put(block(1, 1, p))
        result = store.put(block(0, 2, 0, size=20.0))
        assert result.stored
        assert all(owner_of(b.id.rdd_id) == 1 for b in result.evicted)

    def test_tie_breaks_to_lower_app_index(self):
        pick = StaticShares().pick(
            [
                VictimCandidate(0, bid(0, 1), 10.0, 40.0, 1.0, 0.0),
                VictimCandidate(1, bid(1, 1), 10.0, 40.0, 1.0, 0.0),
            ],
        )
        assert pick.app_index == 0


class TestGlobalDistance:
    def test_evicts_greatest_reference_distance(self):
        # App 0's next candidate is needed sooner (distance 1) than app
        # 1's (distance 7): the global rule evicts app 1's block.
        store, _ = make_store(
            arbitration="global-mrd",
            capacity=100.0,
            distances={0: {1: 1.0}, 1: {STRIDE + 1: 7.0}},
        )
        for p in range(5):
            store.put(block(0, 1, p))
        for p in range(5):
            store.put(block(1, 1, p))
        result = store.put(block(0, 2, 0, size=10.0))
        assert result.stored
        assert [owner_of(b.id.rdd_id) for b in result.evicted] == [1]

    def test_untracked_tenant_is_preferred_victim(self):
        # App 1 tracks no distances (an LRU tenant): its blocks count as
        # INFINITE and go first, like untracked RDDs under MRD.
        store, _ = make_store(
            arbitration="global-mrd",
            capacity=100.0,
            distances={0: {1: 3.0}},
        )
        for p in range(5):
            store.put(block(0, 1, p))
        for p in range(5):
            store.put(block(1, 1, p))
        result = store.put(block(0, 2, 0, size=10.0))
        assert [owner_of(b.id.rdd_id) for b in result.evicted] == [1]


class TestSingleTenantTransparency:
    def test_delegates_victim_selection_verbatim(self):
        shared, composite = make_store(tenants=(0,), capacity=50.0)
        plain = MemoryStore(capacity_mb=50.0, policy=LruPolicy())
        for store in (shared, plain):
            for p in range(5):
                store.put(block(0, 1, p))
        shared_result = shared.put(block(0, 2, 0, size=20.0))
        plain_result = plain.put(block(0, 2, 0, size=20.0))
        assert [b.id for b in shared_result.evicted] == \
            [b.id for b in plain_result.evicted]

    def test_eviction_order_matches_tenant_policy(self):
        store, policy = make_store(tenants=(0,))
        for p in range(4):
            store.put(block(0, 1, p))
        assert list(policy.eviction_order(store)) == \
            list(policy.tenant_policy(0).eviction_order(store))


class TestArbitratedStream:
    def test_protected_and_pinned_blocks_skipped(self):
        store, policy = make_store(capacity=100.0)
        for p in range(3):
            store.put(block(0, 1, p))
            store.put(block(1, 1, p))
        store.pin(bid(0, 1, 0))
        protect = frozenset({bid(1, 1, 0)})
        victims = policy.select_victims(store, needed_mb=40.0, protect=protect)
        assert victims is not None
        assert len(victims) == 4
        assert bid(0, 1, 0) not in victims
        assert bid(1, 1, 0) not in victims

    def test_exhausted_stream_returns_none(self):
        store, policy = make_store(capacity=100.0)
        store.put(block(0, 1, 0))
        assert policy.select_victims(store, needed_mb=500.0) is None


def test_build_arbitration_rejects_unknown():
    with pytest.raises(ValueError, match="unknown arbitration"):
        build_arbitration("fifo")
