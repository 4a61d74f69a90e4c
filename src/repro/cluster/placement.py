"""Block/task placement over a dynamic node set.

Placement answers one question — *which live node owns partition p?* —
and the whole engine routes through it: cached-block homes
(:meth:`~repro.cluster.block_manager_master.BlockManagerMaster.home_node_id`),
task locality (:meth:`~BlockManagerMaster.task_node_id`) and the MRD
manager's prefetch targeting all derive from the same partition → node
mapping, so data and the tasks that read it stay co-located under any
scheme.

Two schemes:

* ``"stride"`` — the legacy modular striding, generalized to the *live*
  node set: ``live[p % len(live)]``.  With static membership this is
  byte-identical to the original ``p % num_nodes``; under churn every
  membership change silently reshuffles every partition's home (the
  known weakness this module exists to fix).
* ``"rendezvous"`` — sticky rendezvous hashing.  A partition's first
  resolution picks the live node with the highest deterministic mix
  score; the assignment is then *pinned* until that node leaves.  A
  join therefore never moves an already-placed partition (only the
  departed node's partitions re-resolve, over the then-live set) — the
  stability property the hypothesis suite asserts.

Both schemes are pure functions of the membership-event history (no
RNG, no wall clock), so runs replay identically.
"""

from __future__ import annotations

import abc
from bisect import insort
from collections.abc import Sequence

#: Placement scheme names understood by :func:`build_placement`.
PLACEMENTS = ("stride", "rendezvous")

_MASK = (1 << 64) - 1


def _mix(partition: int, node_id: int) -> int:
    """Deterministic 64-bit score of (partition, node) — splitmix-style.

    Pure integer arithmetic: stable across processes and Python
    versions (``hash()`` would not be, for composite keys).
    """
    x = (partition + 1) * 0x9E3779B97F4A7C15 & _MASK
    x ^= (node_id + 1) * 0xBF58476D1CE4E5B9 & _MASK
    x ^= x >> 31
    x = x * 0x94D049BB133111EB & _MASK
    x ^= x >> 29
    return x


class PlacementPolicy(abc.ABC):
    """Maps partition indices onto the live node set."""

    name: str = "base"

    def __init__(self, live_node_ids: list[int]) -> None:
        if not live_node_ids:
            raise ValueError("placement needs at least one live node")
        #: Sorted live node ids (kept sorted across joins/leaves).
        self._live = sorted(live_node_ids)

    @property
    def live_node_ids(self) -> list[int]:
        return list(self._live)

    @abc.abstractmethod
    def place(self, partition: int) -> int:
        """Live node id owning ``partition``."""

    def tasks_by_node(
        self, num_tasks: int, num_nodes: int
    ) -> Sequence[Sequence[int]]:
        """Partitions ``0..num_tasks-1`` grouped by owning node.

        Entry ``n`` lists node ``n``'s partitions in ascending order
        (empty for nodes that own none, or are not live).  Partitions
        are resolved through :meth:`place` in ascending order, so sticky
        schemes pin exactly what a per-partition loop would.
        """
        groups: list[list[int]] = [[] for _ in range(num_nodes)]
        place = self.place
        for p in range(num_tasks):
            groups[place(p)].append(p)
        return groups

    def node_joined(self, node_id: int) -> None:
        if node_id in self._live:
            raise ValueError(f"node {node_id} is already live")
        insort(self._live, node_id)

    def node_left(self, node_id: int) -> None:
        if len(self._live) <= 1:
            raise ValueError("cannot remove the last live node")
        try:
            self._live.remove(node_id)
        except ValueError:
            raise ValueError(f"node {node_id} is not live") from None


class StridePlacement(PlacementPolicy):
    """Legacy modular striding over the live node set."""

    name = "stride"

    def place(self, partition: int) -> int:
        live = self._live
        return live[partition % len(live)]

    def tasks_by_node(
        self, num_tasks: int, num_nodes: int
    ) -> Sequence[Sequence[int]]:
        """One stride ``range`` per live node: nothing allocated per task."""
        live = self._live
        stride = len(live)
        groups: list[Sequence[int]] = [range(0)] * num_nodes
        for i, node_id in enumerate(live):
            groups[node_id] = range(i, num_tasks, stride)
        return groups


class RendezvousPlacement(PlacementPolicy):
    """Sticky rendezvous hashing: joins never move placed partitions."""

    name = "rendezvous"

    def __init__(self, live_node_ids: list[int]) -> None:
        super().__init__(live_node_ids)
        #: Pinned partition → node assignments (the stickiness).
        self._assigned: dict[int, int] = {}

    def place(self, partition: int) -> int:
        node_id = self._assigned.get(partition)
        if node_id is None:
            # Highest mix score wins; ties (astronomically unlikely but
            # the contract must be total) break toward the lower id.
            node_id = max(self._live, key=lambda n: (_mix(partition, n), -n))
            self._assigned[partition] = node_id
        return node_id

    def node_left(self, node_id: int) -> None:
        super().node_left(node_id)
        # Only the departed node's partitions re-resolve (lazily, over
        # whatever the live set is when next asked).
        self._assigned = {p: n for p, n in self._assigned.items() if n != node_id}


def build_placement(name: str, live_node_ids: list[int]) -> PlacementPolicy:
    """Construct a placement scheme by name."""
    if name == "stride":
        return StridePlacement(live_node_ids)
    if name == "rendezvous":
        return RendezvousPlacement(live_node_ids)
    raise ValueError(f"placement must be one of {PLACEMENTS}, got {name!r}")
