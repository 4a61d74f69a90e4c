"""Property-based tests: memory-store invariants under random op streams."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.block import Block, BlockId
from repro.cluster.memory_store import MemoryStore
from repro.core.cache_monitor import TIE_BREAKERS, CacheMonitor
from repro.core.policy import PrefetchAwareLruPolicy
from repro.policies.base import walk_victims
from repro.policies.belady import BeladyPolicy
from repro.policies.fifo import FifoPolicy
from repro.policies.lru import LruPolicy
from repro.policies.random_policy import RandomPolicy

POLICIES = [LruPolicy, FifoPolicy, lambda: RandomPolicy(seed=3)]

#: (op, rdd, part, size) — sizes are small relative to 32 MB capacity.
_OPS = st.tuples(
    st.sampled_from(["put", "get", "remove", "pin", "unpin"]),
    st.integers(0, 3),
    st.integers(0, 7),
    st.floats(0.5, 12.0),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(_OPS, max_size=60), st.sampled_from(POLICIES))
def test_store_invariants(ops, policy_factory):
    store = MemoryStore(32.0, policy_factory())
    pinned: dict[BlockId, int] = {}
    for op, rdd, part, size in ops:
        bid = BlockId(rdd, part)
        if op == "put":
            result = store.put(Block(id=bid, size_mb=size))
            for evicted in result.evicted:
                # Pinned blocks are never evicted.
                assert pinned.get(evicted.id, 0) == 0
        elif op == "get":
            block = store.get(bid)
            assert (block is not None) == (bid in store)
        elif op == "remove":
            if not store.is_pinned(bid):
                store.remove(bid)
        elif op == "pin":
            if bid in store:
                store.pin(bid)
                pinned[bid] = pinned.get(bid, 0) + 1
        elif op == "unpin":
            if pinned.get(bid, 0) > 0:
                store.unpin(bid)
                pinned[bid] -= 1
        # Core invariants after every operation:
        assert store.used_mb <= store.capacity_mb + 1e-9
        assert abs(store.used_mb - sum(b.size_mb for b in store.blocks())) < 1e-6
        assert 0 <= len(store)
        for pinned_bid, count in pinned.items():
            if count > 0:
                assert pinned_bid in store


@settings(max_examples=50, deadline=None)
@given(st.lists(_OPS, max_size=40), st.sampled_from(POLICIES))
def test_policy_metadata_consistent_with_store(ops, policy_factory):
    """The policy's eviction order always enumerates exactly the contents."""
    store = MemoryStore(32.0, policy_factory())
    for op, rdd, part, size in ops:
        bid = BlockId(rdd, part)
        if op == "put":
            store.put(Block(id=bid, size_mb=size))
        elif op == "get":
            store.get(bid)
        elif op == "remove":
            store.remove(bid)
    order = list(store.policy.eviction_order(store))
    assert sorted(order) == sorted(store.block_ids())


# ----------------------------------------------------------------------
# value-aware policies: the one-call selection against select-then-admit
# ----------------------------------------------------------------------
class _LiveTable:
    """A manager's live distances (and Belady's next references), mutable
    without any broadcast."""

    visibility = "recurring"

    def __init__(self) -> None:
        self.table: dict[int, float] = {}

    def distance(self, rdd_id: int) -> float:
        return self.table.get(rdd_id, math.inf)

    next_reference_seq = distance


def _monitor(live, tie_breaker):
    return CacheMonitor(0, live, tie_breaker=tie_breaker)


VALUE_AWARE = {
    **{
        f"monitor-{rule}": (lambda live, rule=rule: _monitor(live, rule))
        for rule in TIE_BREAKERS
    },
    "prefetch-aware-lru": PrefetchAwareLruPolicy,
    "belady": BeladyPolicy,
}

_DISTANCES = st.sampled_from([0.0, 1.0, 2.0, 3.0, math.inf])

_PUT = st.tuples(
    st.sampled_from(["put", "prefetch"]),
    st.integers(0, 3),
    st.integers(0, 5),
    st.sampled_from([0.5, 1.0, 2.0, 3.0, 7.0]),
)

#: Puts are drawn twice as often as each other kind, so a 6 MB store is
#: under pressure for most of a stream.
_VALUE_OPS = st.lists(
    st.one_of(
        _PUT,
        _PUT,
        st.tuples(st.sampled_from(["get", "remove", "pin", "unpin"]), st.integers(0, 99)),
        st.tuples(st.just("drift"), st.integers(0, 4), _DISTANCES),
        st.tuples(st.just("broadcast"), st.integers(-1, 1)),
    ),
    min_size=4,
    max_size=50,
)


def _reference_victims(policy, store, block, needed, protect, prefetch):
    """Walk the public order, then ask the admission rule about those
    victims: the two questions ``MemoryStore.put`` used to ask."""
    order = (
        policy.prefetch_eviction_order(store) if prefetch else policy.eviction_order(store)
    )
    victims = walk_victims(order, store, needed, protect)
    if victims is None:
        return None
    admit = policy.admit_prefetch_over if prefetch else policy.admit_over
    return victims if admit(block, victims, store) else None


@settings(max_examples=120, deadline=None)
@given(
    name=st.sampled_from(sorted(VALUE_AWARE)),
    columnar=st.booleans(),
    ops=_VALUE_OPS,
    data=st.data(),
)
def test_one_call_selection_matches_select_then_admit(name, columnar, ops, data):
    """Every put that needs space gets exactly the victims (or refusal)
    that the walk of ``eviction_order``/``prefetch_eviction_order``
    followed by ``admit_over``/``admit_prefetch_over`` gives, through
    table broadcasts, live drift, pins, removals and protect sets; and
    the store's byte count stays the sum of its resident blocks."""
    live = _LiveTable()
    live.table.update({0: 1.0, 1: 2.0, 2: math.inf})
    policy = VALUE_AWARE[name](live)
    store = MemoryStore(6.0, policy, columnar=columnar)
    seq = 0
    if name.startswith("monitor"):
        policy.on_table_update(seq, dict(live.table))
    for op in ops:
        kind = op[0]
        if kind in ("put", "prefetch"):
            block = Block(BlockId(op[1], op[2]), op[3])
            prefetch = kind == "prefetch"
            resident = sorted(store.block_ids())
            protect = frozenset(
                data.draw(st.lists(st.sampled_from(resident), max_size=2))
                if resident else ()
            )
            needed = block.size_mb - store.free_mb
            asks = (
                block.id not in store
                and block.size_mb <= store.capacity_mb
                and needed > 0
            )
            if asks:
                expected = _reference_victims(policy, store, block, needed, protect, prefetch)
                got = policy.select_victims(store, needed, protect, prefetch, block)
                assert got == expected
            result = store.put(block, protect, prefetch=prefetch)
            if asks and expected is None:
                assert not result.stored and not result.evicted
            elif asks:
                assert result.stored
                assert [b.id for b in result.evicted] == expected
            assert not any(b.id in protect or store.is_pinned(b.id) for b in result.evicted)
        elif kind == "drift":
            live.table[op[1]] = op[2]
        elif kind == "broadcast":
            seq += op[1]
            policy.on_table_update(seq, dict(live.table))
        else:
            resident = sorted(store.block_ids())
            if resident:
                bid = resident[op[1] % len(resident)]
                if kind == "get":
                    store.get(bid)
                elif kind == "pin":
                    store.pin(bid)
                elif kind == "unpin" and store.is_pinned(bid):
                    store.unpin(bid)
                elif kind == "remove" and not store.is_pinned(bid):
                    store.remove(bid)
        assert store.used_mb == pytest.approx(
            sum(b.size_mb for b in store.blocks()), abs=1e-9
        )
