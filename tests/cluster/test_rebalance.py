"""Scale-down rebalance policies: which blocks a leaving node keeps.

Selection is pure (the engine performs migrations), so these are plain
unit tests over synthetic block lists and distance functions.
"""

from __future__ import annotations

import math

import pytest

from repro.cluster.block import Block, BlockId
from repro.cluster.rebalance import (
    REBALANCES,
    DropRebalance,
    MigrateLowestDistance,
    build_rebalance,
)


def _block(rdd_id: int, partition: int, size_mb: float = 8.0) -> Block:
    return Block(id=BlockId(rdd_id, partition), size_mb=size_mb)


BLOCKS = [_block(3, 0), _block(1, 1), _block(2, 0), _block(1, 0)]


def test_build_rebalance_by_name():
    for name in REBALANCES:
        assert build_rebalance(name).name == name


def test_build_rebalance_unknown_name():
    with pytest.raises(ValueError, match="rebalance must be one of"):
        build_rebalance("replicate")


def test_drop_selects_nothing():
    assert DropRebalance().select(BLOCKS, lambda b: 1.0) == []


def test_migrate_orders_by_distance_then_block_id():
    distances = {
        BlockId(3, 0): 5.0,
        BlockId(1, 1): 2.0,
        BlockId(2, 0): 2.0,  # ties with (1, 1): block id breaks the tie
        BlockId(1, 0): 9.0,
    }
    selected = MigrateLowestDistance().select(BLOCKS, lambda b: distances[b.id])
    assert [b.id for b in selected] == [
        BlockId(1, 1), BlockId(2, 0), BlockId(3, 0), BlockId(1, 0)
    ]


def test_migrate_unknown_distance_ranks_last_but_still_moves():
    """Distance-blind schemes return None everywhere — blind migration
    still carries the blocks, just without urgency ordering."""
    distances = {BlockId(2, 0): 1.0}
    selected = MigrateLowestDistance().select(
        BLOCKS, lambda b: distances.get(b.id)
    )
    assert selected[0].id == BlockId(2, 0)
    # The None-distance remainder is deterministic: block-id order.
    assert [b.id for b in selected[1:]] == [
        BlockId(1, 0), BlockId(1, 1), BlockId(3, 0)
    ]


def test_migrate_drops_known_dead_blocks():
    """Infinite distance = the scheme knows the block is never read
    again; it is not worth the transfer."""
    distances = {
        BlockId(3, 0): math.inf,
        BlockId(1, 1): 4.0,
        BlockId(2, 0): math.inf,
        BlockId(1, 0): 1.0,
    }
    selected = MigrateLowestDistance().select(BLOCKS, lambda b: distances[b.id])
    assert [b.id for b in selected] == [BlockId(1, 0), BlockId(1, 1)]


def test_migrate_empty_input():
    assert MigrateLowestDistance().select([], lambda b: 1.0) == []
