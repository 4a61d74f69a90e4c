"""Unit tests for the local disk store."""

import pytest

from repro.cluster.block import Block, BlockId
from repro.cluster.disk_store import DiskStore


def blk(rdd, part, size=10.0):
    return Block(id=BlockId(rdd, part), size_mb=size)


class TestDiskStore:
    def test_put_and_get(self):
        d = DiskStore(100.0)
        assert d.put(blk(0, 0))
        assert d.get(BlockId(0, 0)).size_mb == 10.0
        assert BlockId(0, 0) in d
        assert d.used_mb == pytest.approx(10.0)

    def test_duplicate_put_is_idempotent(self):
        d = DiskStore(100.0)
        d.put(blk(0, 0))
        assert d.put(blk(0, 0))
        assert d.used_mb == pytest.approx(10.0)
        assert len(d) == 1

    def test_full_disk_refuses(self):
        d = DiskStore(15.0)
        assert d.put(blk(0, 0))
        assert not d.put(blk(0, 1))

    def test_remove_frees_space(self):
        d = DiskStore(100.0)
        d.put(blk(0, 0))
        assert d.remove(BlockId(0, 0)).id == BlockId(0, 0)
        assert d.used_mb == 0.0
        assert d.remove(BlockId(0, 0)) is None

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DiskStore(0.0)


class TestRemoveRdd:
    def test_removes_exactly_that_rdds_blocks(self):
        d = DiskStore(1000.0)
        for part in range(3):
            for rdd in (1, 2, 3):
                d.put(blk(rdd, part))
        assert d.remove_rdd(2) == 3
        assert sorted(d.block_ids()) == [
            BlockId(rdd, part) for rdd in (1, 3) for part in range(3)
        ]
        assert d.used_mb == pytest.approx(60.0)
        assert d.remove_rdd(2) == 0

    def test_index_follows_single_removes_and_re_puts(self):
        d = DiskStore(1000.0)
        for part in range(3):
            d.put(blk(4, part))
        d.remove(BlockId(4, 1))
        d.put(blk(4, 1))
        d.remove(BlockId(4, 0))
        assert d.remove_rdd(4) == 2
        assert len(d) == 0
        assert d.used_mb == 0.0
        d.put(blk(4, 0))
        assert d.remove_rdd(4) == 1
