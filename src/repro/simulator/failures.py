"""Failure and membership injection: cache loss and churn.

The paper's fault-tolerance story (§4.4): when a worker fails, its
local reference-distance profile is lost and the MRDmanager re-issues
the MRD_Table to the replacement node.  In the simulator a failure
empties the node's memory store (and optionally its spilled disk
blocks); the replacement registers with the same block-manager identity
so placement is unchanged, and the centralized manager state is
re-delivered by construction (policies read the shared manager).

Beyond in-place failures, a plan also schedules *membership* changes:
:class:`NodeJoin` grows the live set (a fresh node registers through
the §4.4 path and starts taking placement), :class:`NodeDecommission`
permanently removes a node (its cache is rebalanced or dropped by the
engine's :class:`~repro.cluster.rebalance.RebalancePolicy`).
:func:`build_churn_plan` draws such events from one seed, so churned
runs replay byte-identically.

Injected failures let the tests assert the two properties that matter:
the run still completes with correct accounting, and the policy's
*relative* advantage survives the hit-ratio dip.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.cluster.cluster import Cluster


@dataclass(frozen=True)
class NodeFailure:
    """Lose node ``node_id``'s cache before active stage ``at_seq``.

    ``lose_disk`` also drops the spilled copies (a machine replacement
    rather than an executor restart); blocks whose only copy lived
    there must then be recomputed — the engine charges the lineage's
    recompute cost through the normal miss path once the blocks are
    rewritten by their next computing stage, or fails loudly if a
    referenced block becomes unrecoverable (which the DAG contract
    forbids for executor restarts).
    """

    at_seq: int
    node_id: int
    lose_disk: bool = False

    def __post_init__(self) -> None:
        if self.at_seq < 0:
            raise ValueError("at_seq must be non-negative")
        if self.node_id < 0:
            raise ValueError("node_id must be non-negative")


@dataclass(frozen=True)
class ControlOutage:
    """Control-plane disruption: message loss over a stage window.

    While the current active-stage seq lies in ``[from_seq, to_seq]``,
    control messages to/from worker ``node_id`` (every worker when
    ``None``) are dropped with probability ``loss_rate`` on top of the
    rpc plane's configured base loss.  The instant plane ignores
    outages — direct calls cannot be lost — so outage experiments
    require ``control_plane="rpc"``.
    """

    from_seq: int
    to_seq: int
    node_id: int | None = None
    loss_rate: float = 1.0

    def __post_init__(self) -> None:
        if self.from_seq < 0 or self.to_seq < self.from_seq:
            raise ValueError("outage window must satisfy 0 <= from_seq <= to_seq")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError("loss_rate must be in [0, 1]")

    def covers(self, seq: int, node_id: int | None) -> bool:
        if not self.from_seq <= seq <= self.to_seq:
            return False
        return self.node_id is None or node_id is None or self.node_id == node_id


@dataclass(frozen=True)
class NodeJoin:
    """Grow the live set before active stage ``at_seq``.

    ``node_id`` pins the joining node's id; ``None`` lets the engine
    assign the next free slot.  Joins flow through the control plane's
    ``WorkerRegister`` path, so under MRD the new node receives the
    current MRD_Table exactly like a §4.4 replacement does.
    """

    at_seq: int
    node_id: int | None = None

    def __post_init__(self) -> None:
        if self.at_seq < 0:
            raise ValueError("at_seq must be non-negative")
        if self.node_id is not None and self.node_id < 0:
            raise ValueError("node_id must be non-negative")


@dataclass(frozen=True)
class NodeDecommission:
    """Permanently remove a node before active stage ``at_seq``.

    ``None`` lets the engine pick the highest live node id — the shape
    :func:`build_churn_plan` writes, and robust to plans built before
    the run's membership history is known.  Unlike :class:`NodeFailure`
    the node does not come back: its cached blocks are handed to the
    engine's rebalance policy (migrate the most-urgent, drop the rest)
    and it stops being a placement target.
    """

    at_seq: int
    node_id: int | None = None

    def __post_init__(self) -> None:
        if self.at_seq < 0:
            raise ValueError("at_seq must be non-negative")
        if self.node_id is not None and self.node_id < 0:
            raise ValueError("node_id must be non-negative")


MembershipEvent = NodeJoin | NodeDecommission


@dataclass
class FailurePlan:
    """A schedule of failures and membership changes, applied at stage
    boundaries."""

    failures: list[NodeFailure] = field(default_factory=list)
    outages: list[ControlOutage] = field(default_factory=list)
    memberships: list[MembershipEvent] = field(default_factory=list)

    def add(self, at_seq: int, node_id: int, lose_disk: bool = False) -> FailurePlan:
        self.failures.append(NodeFailure(at_seq=at_seq, node_id=node_id, lose_disk=lose_disk))
        return self

    def add_outage(
        self,
        from_seq: int,
        to_seq: int,
        node_id: int | None = None,
        loss_rate: float = 1.0,
    ) -> FailurePlan:
        self.outages.append(ControlOutage(
            from_seq=from_seq, to_seq=to_seq, node_id=node_id, loss_rate=loss_rate
        ))
        return self

    def add_join(self, at_seq: int, node_id: int | None = None) -> FailurePlan:
        self.memberships.append(NodeJoin(at_seq=at_seq, node_id=node_id))
        return self

    def add_decommission(self, at_seq: int, node_id: int | None = None) -> FailurePlan:
        self.memberships.append(NodeDecommission(at_seq=at_seq, node_id=node_id))
        return self

    def failures_at(self, seq: int) -> list[NodeFailure]:
        return [f for f in self.failures if f.at_seq == seq]

    def memberships_at(self, seq: int) -> list[MembershipEvent]:
        """Scheduled membership events for stage ``seq``, in plan order."""
        return [m for m in self.memberships if m.at_seq == seq]

    @property
    def elastic(self) -> bool:
        """True if this plan changes membership."""
        return bool(self.memberships)

    def control_loss(self, seq: int, node_id: int | None) -> float:
        """Worst outage loss rate covering (``seq``, ``node_id``)."""
        return max(
            (o.loss_rate for o in self.outages if o.covers(seq, node_id)),
            default=0.0,
        )

    def apply(self, seq: int, cluster: Cluster) -> int:
        """Apply all failures scheduled for stage ``seq``.

        Returns the number of memory blocks lost.  In-flight prefetches
        targeting the failed node are cancelled (their transfer dies
        with the node).
        """
        lost = 0
        for failure in self.failures_at(seq):
            if failure.node_id >= cluster.num_nodes:
                raise ValueError(
                    f"failure targets node {failure.node_id} but the cluster "
                    f"has {cluster.num_nodes} nodes"
                )
            if not cluster.master.is_live(failure.node_id):
                # The target was decommissioned before its failure came
                # due (a churn plan may schedule both): nothing to lose.
                continue
            mgr = cluster.master.managers[failure.node_id]
            node = mgr.node
            for bid in list(node.memory.block_ids()):
                node.memory.remove(bid)
                lost += 1
            for bid in list(mgr.inflight_prefetch):
                mgr.cancel_inflight(bid, reason="failed")
            node.io_free_at = 0.0  # the replacement's disk starts idle
            if failure.lose_disk:
                for bid in list(node.disk.block_ids()):
                    node.disk.remove(bid)
        return lost


def build_churn_plan(num_stages: int, rate: float, seed: int = 0) -> FailurePlan:
    """Random membership churn for a ``num_stages``-stage workload.

    Each interior stage boundary independently hosts a membership event
    with probability ``rate`` — a join or a decommission with equal
    odds, targets left to the engine (joins take the next free slot,
    decommissions drop the highest live id).  All draws come from one
    ``random.Random(seed)``, so a (num_stages, rate, seed) triple names
    exactly one churn history — the sweep axis ``fig_elastic`` runs
    over.
    """
    if num_stages < 0:
        raise ValueError("num_stages must be non-negative")
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be in [0, 1]")
    plan = FailurePlan()
    rng = random.Random(seed)
    for seq in range(1, num_stages):
        if rng.random() < rate:
            if rng.random() < 0.5:
                plan.add_join(seq)
            else:
                plan.add_decommission(seq)
    return plan
