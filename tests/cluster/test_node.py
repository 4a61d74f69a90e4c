"""Unit tests for the worker node and its serialized disk channel."""

import pytest

from repro.cluster.block import Block, BlockId
from repro.cluster.network import DiskModel
from repro.cluster.node import WorkerNode
from repro.policies.lru import LruPolicy


def make_node(**kwargs):
    defaults = dict(
        node_id=0,
        num_slots=2,
        cache_capacity_mb=64.0,
        policy=LruPolicy(),
        disk_model=DiskModel(bandwidth_mb_per_s=100.0, seek_s=0.0),
    )
    defaults.update(kwargs)
    return WorkerNode(**defaults)


class TestWorkerNode:
    def test_requires_slots(self):
        with pytest.raises(ValueError):
            make_node(num_slots=0)

    def test_policy_property(self):
        node = make_node()
        assert node.policy is node.memory.policy

    def test_io_channel_serializes(self):
        node = make_node()
        first = node.reserve_io(now=0.0, size_mb=100.0)   # 1s read
        second = node.reserve_io(now=0.0, size_mb=100.0)  # queued behind
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(2.0)

    def test_io_channel_idles_until_request(self):
        node = make_node()
        node.reserve_io(now=0.0, size_mb=100.0)
        later = node.reserve_io(now=5.0, size_mb=100.0)
        assert later == pytest.approx(6.0)
        assert node.io_free_at == pytest.approx(6.0)

    def test_clear_empties_both_stores_and_idles_the_channel(self):
        class SpyLru(LruPolicy):
            def __init__(self):
                super().__init__()
                self.removed = []

            def on_remove(self, block_id):
                self.removed.append(block_id)
                super().on_remove(block_id)

        policy = SpyLru()
        node = make_node(policy=policy)
        cached = [Block(BlockId(1, p), size_mb=8.0) for p in range(3)]
        spilled = Block(BlockId(2, 0), size_mb=8.0)
        for block in cached:
            node.disk.put(block)
            assert node.memory.put(block).stored
        node.disk.put(spilled)
        node.reserve_io(now=0.0, size_mb=100.0)

        node.clear()

        assert len(node.memory) == 0
        assert node.memory.used_mb == 0.0
        assert list(node.disk.block_ids()) == []
        assert node.io_free_at == 0
        assert sorted(policy.removed) == sorted(b.id for b in cached)
