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

    def test_range_drop_removes_exactly_the_range(self, cluster):
        master = cluster.master

        def in_range(bid):
            return 2 <= bid.rdd_id < 4

        # Rdds 2 and 3 are one finished app's range; 1 and 4 belong to
        # other apps.  Quarter-MB sizes keep every sum exact.
        for rdd in (1, 2, 3, 4):
            for p in range(6):
                master.manager_for(BlockId(rdd, p)).insert_cached(blk(rdd, p, 1.0 + rdd + p / 4))
        # A disk-only block of the range, and one pinned in memory.
        master.managers[0].node.disk.put(blk(3, 9, 7.5))
        pinned = BlockId(2, 0)
        master.manager_for(pinned).node.memory.pin(pinned)
        memory_before = {b.id for b in master.cached_blocks()}
        disks = [mgr.node.disk for mgr in master.managers]
        disk_before = {bid for disk in disks for bid in disk.block_ids()}

        dropped = master.drop_rdd_range(2, 4)

        kept = {bid for bid in memory_before if not in_range(bid)}
        assert {b.id for b in master.cached_blocks()} == kept | {pinned}
        assert dropped == len(memory_before) - len(kept) - 1
        assert {bid for disk in disks for bid in disk.block_ids()} == {
            bid for bid in disk_before if not in_range(bid)
        }
        for disk in disks:
            assert disk.used_mb == sum(disk.get(bid).size_mb for bid in disk.block_ids())
            assert set(disk.rdd_ids()) == {1, 4}

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
