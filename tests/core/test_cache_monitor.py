"""Unit tests for the per-node CacheMonitor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.block import Block, BlockId
from repro.cluster.memory_store import MemoryStore
from repro.core.app_profiler import AppProfiler
from repro.core.cache_monitor import TIE_BREAKERS, CacheMonitor
from repro.core.manager import MrdManager
from repro.dag.dag_builder import build_dag
from repro.policies.base import walk_victims
from repro.policies.profile_oracle import INFINITE
from tests.conftest import make_iterative_app


@pytest.fixture
def manager():
    dag = build_dag(make_iterative_app(iterations=3))
    return MrdManager(dag, AppProfiler(dag, mode="recurring"))


@pytest.fixture
def monitor(manager):
    return CacheMonitor(node_id=0, manager=manager)


def blk(rdd, part, size=1.0):
    return Block(id=BlockId(rdd, part), size_mb=size)


def rdd_by_name(manager, name):
    for prof in manager.dag.profiles.values():
        if prof.rdd.name == name:
            return prof.rdd
    raise KeyError(name)


class TestEvictionOrder:
    def test_infinite_distance_first(self, manager, monitor):
        store = MemoryStore(100.0, monitor)
        links = rdd_by_name(manager, "parsed-links")
        store.put(blk(links.id, 0))
        store.put(blk(999, 0))  # unknown rdd: infinite distance
        order = list(monitor.eviction_order(store))
        assert order[0].rdd_id == 999

    def test_largest_distance_first_among_finite(self, manager, monitor):
        store = MemoryStore(100.0, monitor)
        links = rdd_by_name(manager, "parsed-links")   # referenced soon
        last = rdd_by_name(manager, "ranks-3")          # referenced at the end
        store.put(blk(links.id, 0))
        store.put(blk(last.id, 0))
        order = list(monitor.eviction_order(store))
        assert manager.distance(links.id) < manager.distance(last.id)
        assert order[0].rdd_id == last.id
        assert order[-1].rdd_id == links.id

    def test_tie_break_descending_partition(self, manager, monitor):
        store = MemoryStore(100.0, monitor)
        links = rdd_by_name(manager, "parsed-links")
        for p in range(3):
            store.put(blk(links.id, p))
        order = list(monitor.eviction_order(store))
        assert [b.partition for b in order] == [2, 1, 0]


class TestAdmission:
    def test_worse_block_refused(self, manager, monitor):
        store = MemoryStore(2.0, monitor)
        links = rdd_by_name(manager, "parsed-links")
        store.put(blk(links.id, 0))
        store.put(blk(links.id, 1))
        # Infinite-distance newcomer must not displace soon-needed blocks.
        assert not store.put(blk(999, 0)).stored

    def test_better_block_admitted(self, manager, monitor):
        store = MemoryStore(2.0, monitor)
        links = rdd_by_name(manager, "parsed-links")
        store.put(blk(999, 0))
        store.put(blk(999, 1))
        res = store.put(blk(links.id, 0))
        assert res.stored
        assert len(res.evicted) == 1


class TestTieBreakers:
    def test_invalid_rule_rejected(self, manager):
        with pytest.raises(ValueError, match="tie_breaker"):
            CacheMonitor(0, manager, tie_breaker="coinflip")

    def test_size_rule_evicts_largest_on_tie(self, manager):
        monitor = CacheMonitor(0, manager, tie_breaker="size")
        store = MemoryStore(100.0, monitor)
        links = rdd_by_name(manager, "parsed-links")
        store.put(Block(id=BlockId(links.id, 0), size_mb=1.0))
        store.put(Block(id=BlockId(links.id, 1), size_mb=9.0))
        order = list(monitor.eviction_order(store))
        assert order[0] == BlockId(links.id, 1)

    def test_creation_rule_evicts_youngest_rdd_on_tie(self, manager):
        monitor = CacheMonitor(0, manager, tie_breaker="creation")
        store = MemoryStore(100.0, monitor)
        # Two unknown (infinite-distance) RDDs: the younger goes first.
        store.put(blk(900, 0))
        store.put(blk(901, 0))
        order = list(monitor.eviction_order(store))
        assert order[0] == BlockId(901, 0)

    def test_distance_still_dominates_ties(self, manager):
        monitor = CacheMonitor(0, manager, tie_breaker="size")
        store = MemoryStore(100.0, monitor)
        links = rdd_by_name(manager, "parsed-links")  # referenced soon
        store.put(Block(id=BlockId(links.id, 0), size_mb=50.0))
        store.put(Block(id=BlockId(999, 0), size_mb=1.0))  # infinite dist
        order = list(monitor.eviction_order(store))
        assert order[0].rdd_id == 999


class TestTableView:
    def test_lookup_falls_back_to_live_manager_without_view(self, manager, monitor):
        links = rdd_by_name(manager, "parsed-links")
        assert monitor.lookup_distance(links.id) == manager.distance(links.id)

    def test_delivered_snapshot_overrides_live_state(self, manager, monitor):
        links = rdd_by_name(manager, "parsed-links")
        assert monitor.on_table_update(seq=1, distances={links.id: 42.0})
        assert monitor.lookup_distance(links.id) == 42.0
        # RDDs absent from the snapshot read as infinite, not live.
        assert monitor.lookup_distance(999999) == INFINITE

    def test_out_of_order_snapshot_rejected(self, manager, monitor):
        links = rdd_by_name(manager, "parsed-links")
        assert monitor.on_table_update(seq=5, distances={links.id: 5.0})
        assert not monitor.on_table_update(seq=3, distances={links.id: 3.0})
        assert monitor.lookup_distance(links.id) == 5.0


class TestDistanceLookup:
    def test_distance_delegates_to_manager(self, manager, monitor):
        links = rdd_by_name(manager, "parsed-links")
        assert monitor.manager.distance(links.id) == manager.distance(links.id)
        assert monitor.manager.distance(12345) == INFINITE


class _DriftingManager:
    """Live distances that change without a broadcast."""

    def __init__(self) -> None:
        self.table: dict[int, float] = {}

    def distance(self, rdd_id: int) -> float:
        return self.table.get(rdd_id, INFINITE)


_MONITOR_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"),
            st.integers(0, 3),
            st.integers(0, 5),
            st.sampled_from([1.0, 2.0, 3.0]),
        ),
        st.tuples(st.sampled_from(["get", "remove", "pin", "unpin"]), st.integers(0, 99)),
        st.tuples(st.just("drift"), st.integers(0, 3), st.sampled_from([1.0, 2.0, INFINITE])),
        st.tuples(st.just("broadcast"), st.integers(-1, 1)),
    ),
    min_size=4,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(
    tie_breaker=st.sampled_from(TIE_BREAKERS),
    columnar=st.booleans(),
    ops=_MONITOR_OPS,
    data=st.data(),
)
def test_selection_walk_matches_a_fresh_sort(tie_breaker, columnar, ops, data):
    """The maintained order ``select_victims`` walks picks exactly what
    a fresh sort of the store picks: before any broadcast (live drift),
    after accepted and refused broadcasts, through inserts, evictions,
    removals and pins."""
    live = _DriftingManager()
    monitor = CacheMonitor(0, live, tie_breaker=tie_breaker)
    store = MemoryStore(12.0, monitor, columnar=columnar)
    seq = 0
    for op in ops:
        name = op[0]
        if name == "put":
            store.put(Block(BlockId(op[1], op[2]), op[3]))
        elif name == "drift":
            live.table[op[1]] = op[2]
        elif name == "broadcast":
            seq += op[1]
            monitor.on_table_update(seq, dict(live.table))
        else:
            resident = sorted(store.block_ids(), key=lambda b: (b.rdd_id, b.partition))
            if not resident:
                continue
            bid = resident[op[1] % len(resident)]
            if name == "get":
                store.get(bid)
            elif name == "pin":
                store.pin(bid)
            elif name == "unpin" and store.is_pinned(bid):
                store.unpin(bid)
            elif name == "remove" and not store.is_pinned(bid):
                store.remove(bid)
        resident = list(store.block_ids())
        protect = frozenset(
            data.draw(st.lists(st.sampled_from(resident), max_size=2)) if resident else ()
        )
        needed = data.draw(st.sampled_from([0.5, 2.0, 5.0, 12.0]))
        expected = walk_victims(monitor.eviction_order(store), store, needed, protect)
        for for_prefetch in (False, True):
            assert monitor.select_victims(store, needed, protect, for_prefetch) == expected
