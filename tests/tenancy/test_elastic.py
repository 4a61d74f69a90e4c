"""Elastic membership under multi-tenancy.

Timed joins/decommissions against the shared cluster: validation,
determinism, churn accounting, the static guardrail (inert elasticity
parameters must not perturb a static run), presence bookkeeping for
late arrivals, and the decommission → rejoin cycle.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterConfig
from repro.control.plane import RpcConfig
from repro.core.cache_monitor import MrdTableView
from repro.tenancy import (
    AppSpec,
    FixedArrivals,
    MultiTenantSimulator,
    PoissonArrivals,
    TimedNodeDecommission,
    TimedNodeJoin,
)
from tests.simulator.run_digest import run_digest
from tests.simulator.test_scheduler_equivalence import fingerprint

CLUSTER = ClusterConfig(num_nodes=4, slots_per_node=2, cache_mb_per_node=50.0)
KM = AppSpec(workload="KM", scheme="MRD", partitions=8)


def _mt(**kwargs) -> MultiTenantSimulator:
    apps = kwargs.pop("apps", [KM])
    return MultiTenantSimulator(apps, CLUSTER, **kwargs)


def _fingerprints(result) -> tuple:
    return (result.makespan,) + tuple(fingerprint(m) for m in result.apps)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def test_timed_events_validate():
    with pytest.raises(ValueError, match="non-negative"):
        TimedNodeJoin(at=-1.0)
    with pytest.raises(ValueError, match="non-negative"):
        TimedNodeJoin(at=0.0, node_id=-1)
    with pytest.raises(ValueError, match="non-negative"):
        TimedNodeDecommission(at=-0.5)
    with pytest.raises(ValueError, match="non-negative"):
        TimedNodeDecommission(at=1.0, node_id=-2)


def test_ctor_rejects_bad_elasticity_config():
    with pytest.raises(ValueError, match="unknown placement"):
        _mt(placement="consistent")
    with pytest.raises(ValueError, match="unknown rebalance"):
        _mt(rebalance="replicate")
    with pytest.raises(TypeError, match="TimedNodeJoin"):
        _mt(memberships=[("join", 5.0)])


# ----------------------------------------------------------------------
# the static guardrail and determinism
# ----------------------------------------------------------------------
def test_inert_elasticity_parameters_leave_static_runs_untouched():
    """No membership events + stride placement: the elastic code path
    must be unobservable, whatever the rebalance policy."""
    baseline = _fingerprints(_mt().run())
    inert = _fingerprints(_mt(memberships=(), rebalance="migrate").run())
    assert inert == baseline


def test_churned_run_is_deterministic():
    def once() -> tuple:
        return _fingerprints(_mt(
            apps=[KM, AppSpec(workload="PR", scheme="LRU", partitions=8)],
            arrivals=FixedArrivals(interval=10.0),
            placement="rendezvous",
            memberships=(TimedNodeJoin(at=5.0),
                         TimedNodeDecommission(at=20.0, node_id=1)),
            rebalance="migrate",
        ).run())

    assert once() == once()


def test_churned_run_is_deterministic_over_rpc():
    def once() -> tuple:
        return _fingerprints(_mt(
            placement="rendezvous",
            memberships=(TimedNodeJoin(at=5.0),
                         TimedNodeDecommission(at=20.0)),
            rebalance="migrate",
            control_plane="rpc",
            control_config=RpcConfig(latency_s=0.5),
        ).run())

    assert once() == once()


# ----------------------------------------------------------------------
# churn accounting
# ----------------------------------------------------------------------
def test_membership_counters_and_presence():
    result = _mt(
        placement="rendezvous",
        memberships=(TimedNodeJoin(at=5.0),
                     TimedNodeDecommission(at=20.0, node_id=1)),
        rebalance="migrate",
    ).run()
    (m,) = result.apps
    assert m.nodes_joined == 1
    assert m.nodes_decommissioned == 1
    assert len(m.per_node_presence) == 5  # 4 initial + the joiner
    assert all(0.0 <= p <= 1.0 for p in m.per_node_presence)
    # Node 1 left mid-run and node 4 joined mid-run: partial presence.
    assert 0.0 < m.per_node_presence[1] < 1.0
    assert 0.0 < m.per_node_presence[4] < 1.0
    # Nodes 0/2/3 were live throughout.
    for i in (0, 2, 3):
        assert m.per_node_presence[i] == 1.0


def test_drop_vs_migrate_accounting():
    memberships = (TimedNodeDecommission(at=20.0, node_id=0),)
    dropped = _mt(memberships=memberships, rebalance="drop").run().apps[0]
    migrated = _mt(memberships=memberships, rebalance="migrate").run().apps[0]
    assert dropped.decommission_dropped_blocks > 0
    assert dropped.rebalanced_blocks == 0
    assert migrated.rebalanced_blocks > 0
    assert migrated.rebalanced_mb > 0
    total = dropped.decommission_dropped_blocks
    assert (migrated.rebalanced_blocks
            + migrated.decommission_dropped_blocks) == total


def test_late_arrival_never_sees_the_dead_node():
    """An application that arrives after a decommission must run on the
    surviving nodes and report zero presence for the dead slot."""
    result = _mt(
        apps=[KM, AppSpec(workload="KM", scheme="LRU", partitions=8)],
        arrivals=FixedArrivals(interval=30.0),
        memberships=(TimedNodeDecommission(at=10.0, node_id=1),),
    ).run()
    first, late = result.apps
    assert first.nodes_decommissioned == 1
    # The late app never saw the event, only its aftermath.
    assert late.nodes_decommissioned == 0
    assert late.per_node_presence[1] == 0.0
    assert all(late.per_node_presence[i] == 1.0 for i in (0, 2, 3))
    assert late.jct > 0


def test_decommissioned_slot_can_rejoin():
    result = _mt(
        placement="rendezvous",
        memberships=(TimedNodeDecommission(at=5.0, node_id=2),
                     TimedNodeJoin(at=25.0, node_id=2)),
    ).run()
    (m,) = result.apps
    assert m.nodes_joined == 1
    assert m.nodes_decommissioned == 1
    assert len(m.per_node_presence) == 4  # the slot was reused, not grown
    # The bounced slot was absent for the middle of the run.
    assert 0.0 < m.per_node_presence[2] < 1.0
    for i in (0, 1, 3):
        assert m.per_node_presence[i] == 1.0


# ----------------------------------------------------------------------
# pinned digests: churned multi-tenant runs compute exactly what they
# did when pinned (every app's metrics_to_dict plus the makespan)
# ----------------------------------------------------------------------
_LOSSY_RPC = RpcConfig(latency_s=0.2, jitter_s=0.3, loss_rate=0.05, seed=11)

#: Churn mixes: a rejoin, a late arrival after a decommission, and the
#: static (with unequal shares) and global-mrd arbitrations under churn.
CHURN_MIXES = {
    "rejoin": dict(
        apps=[KM, AppSpec(workload="PR", scheme="LRU", partitions=8)],
        arrivals=FixedArrivals(interval=10.0),
        placement="rendezvous",
        rebalance="migrate",
        memberships=(TimedNodeDecommission(at=5.0, node_id=2),
                     TimedNodeJoin(at=15.0),
                     TimedNodeJoin(at=25.0, node_id=2)),
    ),
    "late-arrival": dict(
        apps=[KM, AppSpec(workload="KM", scheme="LRU", partitions=8)],
        arrivals=FixedArrivals(interval=30.0),
        memberships=(TimedNodeDecommission(at=10.0, node_id=1),
                     TimedNodeJoin(at=40.0)),
    ),
    "static-churn": dict(
        apps=[KM, AppSpec(workload="SVD++", scheme="MRD", partitions=8, share=2.0),
              AppSpec(workload="PR", scheme="LRU", partitions=8)],
        arrivals=PoissonArrivals(rate=0.1, seed=3),
        arbitration="static",
        rebalance="migrate",
        memberships=(TimedNodeJoin(at=8.0), TimedNodeDecommission(at=20.0)),
        control_plane="rpc",
        control_config=_LOSSY_RPC,
    ),
    "global-mrd": dict(
        apps=[KM, AppSpec(workload="PR", scheme="MRD", partitions=8)],
        arrivals=FixedArrivals(interval=5.0),
        arbitration="global-mrd",
        placement="rendezvous",
        rebalance="migrate",
        memberships=(TimedNodeDecommission(at=12.0, node_id=0),
                     TimedNodeJoin(at=18.0),
                     TimedNodeJoin(at=30.0, node_id=0)),
    ),
}

PINNED_MIX_DIGESTS = {
    "global-mrd": "c91a7a70bac94ece",
    "late-arrival": "a0584e9e189b0bae",
    "rejoin": "06fcc09d350b5732",
    "static-churn": "67b1c21b4edc0e17",
}


def _held_views(sim: MultiTenantSimulator, result) -> list[tuple[int, int, int, int]]:
    """``(app, node, held seq, last boundary seq)`` for every MRD tenant
    policy on a node its application still sees live."""
    views = []
    for app, metrics in zip(sim._loop.apps, result.apps, strict=True):
        master = app.driver.cluster.master
        last = metrics.stage_records[-1].seq
        for node_id, policy in enumerate(app.driver._tenant_policies):
            if isinstance(policy, MrdTableView) and master.is_live(node_id):
                views.append((app.index, node_id, policy._view_seq, last))
    return views


@pytest.mark.parametrize("mix", sorted(CHURN_MIXES))
def test_churned_mix_digest_is_pinned(mix):
    sim = _mt(**CHURN_MIXES[mix])
    result = sim.run()
    assert run_digest(result.apps, (), result.makespan) == PINNED_MIX_DIGESTS[mix]
    if "control_plane" in CHURN_MIXES[mix]:
        return  # a lossy plane may leave a view on an older table
    # Tenant routing: under the instant plane every table lands on its
    # application's own tenant policy, including on nodes that joined
    # mid-run through WorkerRegister.  A monitor without a view falls
    # back to the live table, so the digest alone cannot see a
    # misrouted broadcast; the held views can.
    views = _held_views(sim, result)
    assert any(node_id >= CLUSTER.num_nodes for _, node_id, _, _ in views)
    assert [(app, node, held) for app, node, held, last in views if held != last] == []
