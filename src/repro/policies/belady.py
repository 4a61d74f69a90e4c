"""Belady's MIN oracle — the clairvoyant upper bound.

Evicts the block whose next reference lies furthest in the future,
using the exact execution trace.  The paper cites MIN (§3.1) as the
optimum that DAG-aware policies can only approximate because the task
execution order is not fully known; in our deterministic simulator the
stage-granularity trace *is* exact, so MIN serves as the upper bound
the tests compare every other policy against.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.policies.base import EvictionPolicy
from repro.policies.profile_oracle import ProfileOracle

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.block import Block, BlockId
    from repro.cluster.memory_store import MemoryStore


class BeladyPolicy(EvictionPolicy):
    """Evict the block referenced furthest in the future (MIN)."""

    name = "Belady"

    def __init__(self, oracle: ProfileOracle) -> None:
        if oracle.visibility != "recurring":
            raise ValueError("Belady's MIN requires the full (recurring) trace")
        self._oracle = oracle

    # MIN ranks by the oracle alone: no per-block state to maintain.
    def on_insert(self, block: Block) -> None:
        pass

    def on_access(self, block: Block) -> None:
        pass

    def on_remove(self, block_id: BlockId) -> None:
        pass

    def eviction_order(self, store: MemoryStore) -> Iterator[BlockId]:
        # Furthest next use first; never-again-used blocks lead.  Ties
        # (blocks of the same RDD) break on descending partition index —
        # the stable rule that avoids cyclic-scan thrash and is what
        # block-granular MIN would converge to.
        return iter(sorted(store.block_ids(), key=self._evict_key))

    def admit_over(self, block: Block, victims: list[BlockId], store: MemoryStore) -> bool:
        """MIN never displaces a block it would rather keep."""
        incoming = self._evict_key(block.id)
        return all(incoming > self._evict_key(v) for v in victims)

    def _evict_key(self, bid: BlockId) -> tuple[float, int, int]:
        nxt = self._oracle.next_reference_seq(bid.rdd_id)
        return (-nxt, -bid.partition, -bid.rdd_id)
