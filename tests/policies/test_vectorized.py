"""Property tests: batched victim selection == per-object reference walk.

The columnar batch path (:mod:`repro.policies.vectorized`) and every
policy-maintained fast order (LRU's queue walk) must be byte-identical
to the per-object reference walk — on random stores with duplicate
sizes and heavily tied keys, random pins and protected sets, and
distance-table broadcasts arriving mid-stream.  (The CacheMonitor has
no batch path; ``tests/core/test_cache_monitor.py`` holds its
maintained order to a fresh sort.)
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.block import Block, BlockId
from repro.cluster.memory_store import MemoryStore, store_mode
from repro.core.policy import PrefetchAwareLruPolicy
from repro.policies.base import BatchUnsupported
from repro.policies.fifo import FifoPolicy
from repro.policies.lfu import LfuPolicy
from repro.policies.lru import LruPolicy


class _StubManager:
    """Live-distance source for monitors built outside an engine."""

    def distance(self, rdd_id: int) -> float:
        return float(rdd_id % 3)


#: (label, factory, for_prefetch) — every policy with a batch path,
#: and the prefetch-only variant's distance-ordered prefetch selection.
POLICIES = [
    ("lru", LruPolicy, False),
    ("fifo", FifoPolicy, False),
    ("lfu", LfuPolicy, False),
    ("mrd-prefetch", lambda: PrefetchAwareLruPolicy(_StubManager()), True),
]

#: Duplicate-heavy sizes and a tiny id space force equal-key ties.
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["put", "get", "remove", "pin"]),
        st.integers(0, 3),
        st.integers(0, 7),
        st.sampled_from([1.0, 2.0, 3.0]),
    ),
    min_size=4,
    max_size=50,
)

#: One distance per rdd id 0..3; duplicates (and inf) are deliberate.
_DISTS = st.lists(
    st.sampled_from([1.0, 2.0, 5.0, float("inf")]), min_size=4, max_size=4
)


def _apply(store: MemoryStore, op: str, rdd: int, part: int, size: float) -> None:
    bid = BlockId(rdd, part)
    if op == "put":
        store.put(Block(id=bid, size_mb=size))
    elif op == "get":
        store.get(bid)
    elif op == "remove":
        if bid in store and not store.is_pinned(bid):
            store.remove(bid)
    elif op == "pin":
        if bid in store:
            store.pin(bid)


@settings(max_examples=60, deadline=None)
@given(
    ops=_OPS,
    dist1=_DISTS,
    dist2=_DISTS,
    needed=st.floats(0.5, 40.0),
    spec=st.sampled_from(POLICIES),
    update_mid=st.booleans(),
)
def test_batch_select_matches_reference_walk(
    ops, dist1, dist2, needed, spec, update_mid
):
    _, factory, for_prefetch = spec
    policy = factory()
    store = MemoryStore(24.0, policy)
    policy.on_table_update(1, dict(enumerate(dist1)))
    for i, (op, rdd, part, size) in enumerate(ops):
        _apply(store, op, rdd, part, size)
        if update_mid and i == len(ops) // 2:
            policy.on_table_update(2, dict(enumerate(dist2)))
    protect = frozenset(list(store.block_ids())[::3])

    batched = policy.select_victims_batch(store, needed, protect, for_prefetch)
    assert not isinstance(batched, BatchUnsupported)
    walk = policy._select_victims_walk(store, needed, protect, for_prefetch)
    assert batched == walk
    # The public entry point (batch, maintained order, or queue walk,
    # whichever the policy picks) must agree with the reference too.
    assert policy.select_victims(store, needed, protect, for_prefetch) == walk


@settings(max_examples=20, deadline=None)
@given(ops=_OPS, needed=st.floats(0.5, 40.0), spec=st.sampled_from(POLICIES))
def test_object_store_never_uses_batch(ops, needed, spec):
    """``store_mode(columnar=False)`` pins policies to the reference spec."""
    _, factory, for_prefetch = spec
    policy = factory()
    with store_mode(False):
        store = MemoryStore(24.0, policy)
    policy.on_table_update(1, {r: float(r) for r in range(4)})
    for op, rdd, part, size in ops:
        _apply(store, op, rdd, part, size)
    protect = frozenset(list(store.block_ids())[::3])
    batched = policy.select_victims_batch(store, needed, protect, for_prefetch)
    assert isinstance(batched, BatchUnsupported)
    walk = policy._select_victims_walk(store, needed, protect, for_prefetch)
    assert policy.select_victims(store, needed, protect, for_prefetch) == walk
