"""Prefetch planning skips RDDs whose every partition is resident at home.

While membership is static every resident block sits at its home node,
so an RDD with every partition resident has nothing to prefetch, and
``MrdManager._select_prefetches`` skips its partition walk.  These tests check that the skip gives exactly the orders of the
full walk — over random residency, in-flight and disk states — and that
under churned membership (where a block may sit off its home) the walk
always runs.  They also check the planner against the planning rule
applied one partition at a time.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.block import Block, BlockId
from repro.cluster.cluster import ClusterConfig, build_cluster, make_worker
from repro.cluster.memory_store import MemoryStore
from repro.core.app_profiler import AppProfiler
from repro.core.cache_monitor import CacheMonitor
from repro.core.manager import MrdConfig, MrdManager
from repro.dag.dag_builder import build_dag
from tests.conftest import make_iterative_app

DAG = build_dag(make_iterative_app(iterations=3))
CACHED = [rdd for rdd in DAG.app.rdds if rdd.is_cached]

#: Per-partition states: absent, on disk only, resident (memory + disk),
#: prefetch in flight (disk + in-flight entry).
STATES = ("absent", "disk", "resident", "inflight")
MEMBERSHIPS = ("static", "decommission", "join", "rendezvous")


def _walk_only():
    """Disable the skip: no residency count ever adds up."""
    return mock.patch.object(MemoryStore, "resident_count", lambda self, rdd_id: -1)


@st.composite
def scenarios(draw):
    membership = draw(st.sampled_from(MEMBERSHIPS))
    return {
        # The last live node cannot be decommissioned.
        "nodes": draw(st.integers(2 if membership == "decommission" else 1, 4)),
        "cache": draw(st.sampled_from([8.0, 30.0, 400.0])),
        "membership": membership,
        "seq": draw(st.integers(0, DAG.num_active_stages - 1)),
        "cap": draw(st.integers(1, 8)),
        "threshold": draw(st.sampled_from([0.0, 0.25, 0.9])),
        "guarded": draw(st.booleans()),
        # Per cached RDD: all partitions resident, or one state each.
        "rdds": [
            draw(st.one_of(
                st.just("all-resident"),
                st.lists(
                    st.sampled_from(STATES),
                    min_size=rdd.num_partitions, max_size=rdd.num_partitions,
                ),
            ))
            for rdd in CACHED
        ],
        # Node index (into the live list) of each off-home resident
        # block under churn; ignored while membership is static.
        "hosts": draw(st.lists(st.integers(0, 7), min_size=64, max_size=64)),
    }


def _build(sc):
    profiler = AppProfiler(DAG, mode="recurring")
    manager = MrdManager(DAG, profiler, MrdConfig(
        max_prefetch_per_node=sc["cap"],
        prefetch_threshold=sc["threshold"],
        guarded_prefetch=sc["guarded"],
    ))
    config = ClusterConfig(
        num_nodes=sc["nodes"], slots_per_node=2, cache_mb_per_node=sc["cache"],
    )

    def factory(i):
        return CacheMonitor(i, manager)

    placement = "rendezvous" if sc["membership"] == "rendezvous" else "stride"
    cluster = build_cluster(config, factory, placement=placement)
    master = cluster.master
    if sc["membership"] == "decommission":
        master.decommission_node(master.live_node_ids[-1])
    elif sc["membership"] == "join":
        master.add_node(make_worker(config, master.num_nodes, factory))
    live = master.live_node_ids
    static = master.static_members
    hosts = iter(sc["hosts"])
    for rdd, states in zip(CACHED, sc["rdds"]):
        manager.on_block_created(rdd.id)
        if states == "all-resident":
            states = ["resident"] * rdd.num_partitions
        for p, state in enumerate(states):
            if state == "absent":
                continue
            bid = BlockId(rdd.id, p)
            block = Block(id=bid, size_mb=rdd.partition_size_mb)
            home = master.manager_for(bid)
            home.node.disk.put(block)
            if state == "inflight":
                home.inflight_prefetch[bid] = 1.0
            elif state == "resident":
                # Static membership keeps every block at its home; under
                # churn a resident block may sit on any live node.
                host = home if static else master.managers[live[next(hosts) % len(live)]]
                host.node.disk.put(block)
                host.node.memory.put(block)
    manager.table.advance(sc["seq"], DAG.job_of_seq(sc["seq"]))
    return manager, cluster


def _partition_walk(manager, cluster):
    """The planning rule applied one partition at a time, in candidate
    then partition order, with the guard's worst resident distance
    rescanned from the live table at every non-fitting block."""
    cfg = manager.config
    master = cluster.master
    live = master.live_nodes()
    threshold = manager.current_threshold(cluster)
    free = {n.node_id: n.memory.free_mb for n in live}
    capacity = {n.node_id: n.memory.capacity_mb for n in live}
    issued = dict.fromkeys(free, 0)
    orders = []
    for dist, rdd_id in manager.table.candidates_by_distance():
        if rdd_id not in manager._materialized:
            continue
        rdd = DAG.app.rdd_by_id(rdd_id)
        size = rdd.partition_size_mb
        for p in range(rdd.num_partitions):
            node_id = master.placement.place(p)
            if issued[node_id] >= cfg.max_prefetch_per_node:
                continue
            bid = BlockId(rdd.id, p)
            mgr = master.managers[node_id]
            memory = mgr.node.memory
            if bid in memory or bid in mgr.inflight_prefetch or bid not in mgr.node.disk:
                continue
            cap = capacity[node_id]
            above = cap > 0 and free[node_id] / cap >= threshold
            if size > free[node_id] and (cfg.guarded_prefetch or not above):
                worst = max(
                    (
                        manager.distance(r)
                        for r in memory.resident_rdd_ids()
                        if r in manager._known_rdds
                    ),
                    default=-1.0,
                )
                if worst <= dist:
                    continue
            orders.append(Block(id=bid, size_mb=size, rdd_name=rdd.name))
            issued[node_id] += 1
            free[node_id] = max(0.0, free[node_id] - size)
    return orders


@settings(max_examples=150, deadline=None)
@given(sc=scenarios())
def test_planner_gives_the_partition_walks_orders(sc):
    """Walking node by node, leaving a node once the guard refused a
    block there, issues exactly the per-partition walk's orders."""
    manager, cluster = _build(sc)
    assert manager._select_prefetches(cluster) == _partition_walk(manager, cluster)


@settings(max_examples=150, deadline=None)
@given(sc=scenarios())
def test_skip_gives_the_walks_orders(sc):
    manager, cluster = _build(sc)
    assert cluster.master.static_members == (sc["membership"] == "static")
    orders = manager._select_prefetches(cluster)
    with _walk_only():
        walked = manager._select_prefetches(cluster)
    assert orders == walked


def test_all_resident_rdds_skip_the_walk():
    sc = {
        "nodes": 3, "cache": 400.0, "membership": "static", "seq": 0, "cap": 8,
        "threshold": 0.25, "guarded": False,
        "rdds": ["all-resident"] * len(CACHED), "hosts": [0] * 64,
    }
    manager, cluster = _build(sc)
    placement = cluster.master.placement
    with mock.patch.object(placement, "place", wraps=placement.place) as place:
        assert manager._select_prefetches(cluster) == []
    assert place.call_count == 0


def test_churned_membership_always_walks():
    # Every partition resident, but some off their homes: the count
    # matches while the walk still finds fetchable blocks at home.
    sc = {
        "nodes": 3, "cache": 400.0, "membership": "decommission", "seq": 0,
        "cap": 8, "threshold": 0.25, "guarded": False,
        "rdds": ["all-resident"] * len(CACHED), "hosts": [0] * 64,
    }
    manager, cluster = _build(sc)
    orders = manager._select_prefetches(cluster)
    with _walk_only():
        assert orders == manager._select_prefetches(cluster)
    assert orders
