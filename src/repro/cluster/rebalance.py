"""Scale-down cache rebalancing: what happens to a leaving node's blocks.

When a node is decommissioned its memory-resident blocks are orphaned.
A :class:`RebalancePolicy` decides, *before* the node is torn down,
which of those blocks are worth migrating to their new homes on the
surviving nodes (priced through
:class:`~repro.cluster.network.NetworkModel` by the engine) and which
are simply dropped.  This is where the paper's global reference
distance earns its keep under churn: MRD knows which blocks will be
re-read soonest and can move exactly those, while distance-blind
policies either move nothing (``"drop"``) or rank by a proxy.

The policy only *selects*; the engine performs the migration (network
pricing, destination admission via ``insert_cached``, trace events,
metrics counters), keeping selection pure and unit-testable.
"""

from __future__ import annotations

import abc
import math
from collections.abc import Callable

from repro.cluster.block import Block

#: Rebalance policy names understood by :func:`build_rebalance`.
REBALANCES = ("drop", "migrate")

#: Resolves a block's current reference distance; ``None`` = unknown
#: (never referenced again, or the scheme does not track distances).
DistanceFn = Callable[[Block], float | None]


class RebalancePolicy(abc.ABC):
    """Chooses which of a decommissioned node's blocks to migrate."""

    name: str = "base"

    @abc.abstractmethod
    def select(self, blocks: list[Block], distance_of: DistanceFn) -> list[Block]:
        """Blocks to migrate, in migration order; the rest are dropped."""


class DropRebalance(RebalancePolicy):
    """Migrate nothing — a leaving node's cache is simply lost.

    This is what vanilla Spark decommissioning without block migration
    does, and the baseline the migrate policy is measured against.
    """

    name = "drop"

    def select(self, blocks: list[Block], distance_of: DistanceFn) -> list[Block]:
        return []


class MigrateLowestDistance(RebalancePolicy):
    """Migrate the most-urgent blocks first (lowest reference distance).

    Blocks whose distance is *infinite* (the scheme knows they will
    never be read again) are not worth the transfer and are dropped
    outright — the edge a global reference-distance table gives over
    distance-blind schemes, whose ``None`` distances rank last but are
    still migrated (blind migration).  Ties break on ``(rdd_id,
    partition)`` for a deterministic order.
    """

    name = "migrate"

    def select(self, blocks: list[Block], distance_of: DistanceFn) -> list[Block]:
        ranked: list[tuple[float, int, int, Block]] = []
        for block in blocks:
            dist = distance_of(block)
            if dist is not None and math.isinf(dist):
                continue  # known dead: not worth the network transfer
            ranked.append((
                dist if dist is not None else math.inf,
                block.id.rdd_id,
                block.id.partition,
                block,
            ))
        ranked.sort(key=lambda item: item[:3])
        return [item[3] for item in ranked]


def build_rebalance(name: str) -> RebalancePolicy:
    """Construct a rebalance policy by name."""
    if name == "drop":
        return DropRebalance()
    if name == "migrate":
        return MigrateLowestDistance()
    raise ValueError(f"rebalance must be one of {REBALANCES}, got {name!r}")
