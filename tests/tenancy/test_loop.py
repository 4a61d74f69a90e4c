"""The shared scheduling loop against its per-task specification.

:class:`~repro.simulator.engine.EventLoop` batches tasks per node, runs
slots until preempted, pops slots inline and runs lone cache-inert
stages in closed form.  Here it is compared with
:class:`tests.tenancy.loop_spec.PerTaskLoop` — one heap pop per task,
nothing batched — on random multi-application streams, and checked for
slot conservation after churned standalone runs: no task left queued,
every slot parked again, every stage drained.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.tenancy.engine as tenancy_engine
from repro.cluster.cluster import ClusterConfig
from repro.control.plane import RpcConfig
from repro.experiments.harness import build_workload_dag, cache_mb_for
from repro.simulator.engine import EventLoop, SparkSimulator
from repro.simulator.failures import FailurePlan, build_churn_plan
from repro.sweep.schemes import resolve_scheme
from repro.tenancy import AppSpec, FixedArrivals, MultiTenantSimulator, PoissonArrivals
from repro.tenancy.metrics import mt_metrics_to_dict
from tests.tenancy.loop_spec import PerTaskLoop
from tests.tenancy.test_dense import dense_mix

WORKLOADS = ("KM", "PR", "SVD++", "CC", "LP", "SP")
SCHEMES = ("LRU", "MRD", "MRD-prefetch", "MRD-evict", "LRC")


@contextmanager
def per_task_loop():
    """Run multi-tenant simulations through the specification."""
    with mock.patch.object(tenancy_engine, "EventLoop", PerTaskLoop):
        yield


def both(build) -> tuple[dict, dict]:
    """``build()``'s run through the production loop and the spec."""
    production = mt_metrics_to_dict(build().run())
    with per_task_loop():
        spec = mt_metrics_to_dict(build().run())
    return production, spec


# ----------------------------------------------------------------------
# production loop == per-task specification
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", ["static", "global-mrd"])
def test_dense_mixes_match_the_spec(case):
    production, spec = both(lambda: dense_mix(case))
    assert production == spec


@st.composite
def streams(draw):
    num_nodes = draw(st.integers(2, 4))
    apps = [
        AppSpec(
            workload=draw(st.sampled_from(WORKLOADS)),
            scheme=draw(st.sampled_from(SCHEMES)),
            partitions=draw(st.integers(2, 10)),
            seed=draw(st.integers(0, 3)),
            share=draw(st.sampled_from([0.5, 1.0, 2.0])),
        )
        for _ in range(draw(st.integers(1, 4)))
    ]
    if draw(st.booleans()):
        arrivals = PoissonArrivals(rate=draw(st.floats(0.05, 4.0)), seed=draw(st.integers(0, 9)))
    else:
        arrivals = FixedArrivals(interval=draw(st.sampled_from([0.0, 0.5, 3.0, 20.0])))
    kwargs = dict(
        arrivals=arrivals,
        arbitration=draw(st.sampled_from(["static", "global-mrd"])),
    )
    if draw(st.booleans()):
        kwargs.update(control_plane="rpc", control_config=RpcConfig(
            latency_s=draw(st.sampled_from([0.0, 0.2, 1.0])),
            jitter_s=draw(st.sampled_from([0.0, 0.3])),
            loss_rate=draw(st.sampled_from([0.0, 0.05, 0.2])),
            seed=draw(st.integers(0, 9)),
        ))
    cluster = ClusterConfig(
        num_nodes=num_nodes,
        slots_per_node=draw(st.integers(1, 3)),
        cache_mb_per_node=draw(st.sampled_from([20.0, 60.0, 200.0])),
    )
    return apps, cluster, kwargs


@settings(max_examples=40, deadline=None)
@given(stream=streams())
def test_random_streams_match_the_spec(stream):
    apps, cluster, kwargs = stream
    production, spec = both(lambda: MultiTenantSimulator(apps, cluster, **kwargs))
    assert production == spec


# ----------------------------------------------------------------------
# slot conservation
# ----------------------------------------------------------------------
def assert_slots_conserved(loop: EventLoop) -> None:
    assert not loop.events and not loop.slots
    assert len(loop.queues) == len(loop.parked) == len(loop.nodes)
    for node, queue, parked in zip(loop.nodes, loop.queues, loop.parked):
        assert not queue, f"node {node.node_id} still has tasks queued"
        assert len(parked) == node.num_slots, f"node {node.node_id} lost or gained slots"
    assert all(app.remaining == 0 for app in loop.apps)
    assert all(app.metrics is not None for app in loop.apps)


@pytest.fixture
def loops(monkeypatch) -> list[EventLoop]:
    """Every EventLoop run while the test runs."""
    seen: list[EventLoop] = []
    run = EventLoop.run

    def spy(self, *args, **kwargs):
        seen.append(self)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(EventLoop, "run", spy)
    return seen


CLUSTER = ClusterConfig(num_nodes=4, slots_per_node=2, cache_mb_per_node=50.0)

STANDALONE_PLANS = {
    "join-decommission": lambda: (
        FailurePlan().add_join(at_seq=2).add_decommission(at_seq=4, node_id=1)
        .add_decommission(at_seq=6)
    ),
    "bounce": lambda: (
        FailurePlan().add_decommission(at_seq=2, node_id=2).add_join(at_seq=5, node_id=2)
        .add(at_seq=7, node_id=0)
    ),
    "seeded": lambda: build_churn_plan(12, 0.5, seed=1),
}


@pytest.mark.parametrize("plan", sorted(STANDALONE_PLANS))
@pytest.mark.parametrize("placement", ["stride", "rendezvous"])
@pytest.mark.parametrize("plane", ["instant", "rpc"])
def test_standalone_churned_runs_conserve_slots(loops, plan, placement, plane):
    dag = build_workload_dag("KM", partitions=8)
    rpc = {}
    if plane == "rpc":
        rpc = dict(control_plane="rpc", control_config=RpcConfig(latency_s=0.5))
    SparkSimulator(
        dag, CLUSTER.with_cache(cache_mb_for(dag, 0.4, CLUSTER)), resolve_scheme("MRD").build(),
        failure_plan=STANDALONE_PLANS[plan](), placement=placement,
        rebalance="migrate", **rpc,
    ).run()
    (loop,) = loops
    assert_slots_conserved(loop)
