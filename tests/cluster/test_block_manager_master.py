"""Unit tests for cluster-wide block routing and purge orders."""

import pytest

from repro.cluster.block import Block, BlockId
from repro.cluster.cluster import ClusterConfig, build_cluster
from repro.policies.lru import LruPolicy


def blk(rdd, part, size=5.0):
    return Block(id=BlockId(rdd, part), size_mb=size)


@pytest.fixture
def cluster():
    config = ClusterConfig(num_nodes=3, slots_per_node=2, cache_mb_per_node=50.0)
    return build_cluster(config, lambda node_id: LruPolicy())


class TestRouting:
    def test_home_node_round_robin(self, cluster):
        master = cluster.master
        assert master.home_node_id(BlockId(0, 0)) == 0
        assert master.home_node_id(BlockId(0, 1)) == 1
        assert master.home_node_id(BlockId(0, 3)) == 0

    def test_task_node_matches_block_home(self, cluster):
        master = cluster.master
        for p in range(9):
            assert master.task_node_id(p) == master.home_node_id(BlockId(0, p))

    def test_manager_for_routes_to_home(self, cluster):
        master = cluster.master
        mgr = master.manager_for(BlockId(0, 4))
        assert mgr.node.node_id == 1

    def test_empty_cluster_rejected(self):
        from repro.cluster.block_manager_master import BlockManagerMaster

        with pytest.raises(ValueError):
            BlockManagerMaster([])


class TestPurge:
    def test_purge_rdd_cluster_wide(self, cluster):
        master = cluster.master
        for p in range(6):
            master.manager_for(BlockId(1, p)).insert_cached(blk(1, p))
            master.manager_for(BlockId(2, p)).insert_cached(blk(2, p))
        dropped = master.purge_rdd(1)
        assert dropped == 6
        assert not any(b.id.rdd_id == 1 for b in master.cached_blocks())
        assert sum(1 for b in master.cached_blocks() if b.id.rdd_id == 2) == 6
        # Disk copies survive a plain purge.
        assert master.disk_contains(BlockId(1, 0))

    def test_purge_drop_disk(self, cluster):
        master = cluster.master
        master.manager_for(BlockId(1, 0)).insert_cached(blk(1, 0))
        master.purge_rdd(1, drop_disk=True)
        assert not master.disk_contains(BlockId(1, 0))

    def test_purge_on_one_node_drops_exactly_that_rdds_disk_blocks(self, cluster):
        master = cluster.master
        for p in range(6):
            for rdd in (1, 2):
                master.manager_for(BlockId(rdd, p)).insert_cached(blk(rdd, p))
        disk = master.managers[0].node.disk
        before = set(disk.block_ids())
        master.purge_rdd_on(0, 1, drop_disk=True)
        assert set(disk.block_ids()) == {b for b in before if b.rdd_id != 1}
        assert {b.rdd_id for b in disk.block_ids()} == {2}
        # The other nodes' copies of the purged RDD are untouched.
        assert master.disk_contains(BlockId(1, 1))
        assert master.disk_contains(BlockId(1, 2))

    def test_memory_contains(self, cluster):
        master = cluster.master
        master.manager_for(BlockId(1, 0)).insert_cached(blk(1, 0))
        assert master.memory_contains(BlockId(1, 0))
        assert not master.memory_contains(BlockId(1, 1))


class TestAggregation:
    def test_total_stats_sums_nodes(self, cluster):
        master = cluster.master
        for p in range(6):
            master.manager_for(BlockId(0, p)).insert_cached(blk(0, p))
            master.manager_for(BlockId(0, p)).access(BlockId(0, p))
        total = master.total_stats()
        assert total.insertions == 6
        assert total.hits == 6
        assert total.hit_ratio == pytest.approx(1.0)
