"""Scheduler-core equivalence: event queue vs reference loops.

The event-queue core (global slot heap + prefetch-completion heap) is a
pure performance rewrite of the reference core (per-task ``min()`` over
all nodes + per-task scan of every in-flight dict).  These tests pin
the contract down: identical :class:`RunMetrics` — times, counters,
per-node ratios, stage records — on every registered workload under
every registered policy, plus the edge paths (failure injection,
unpersist-in-flight, trace recording) the happy path doesn't exercise.

Cache-inert stages (no cached reads or writes) take the event core's
closed form instead of its slot heap; the last section pins that path
down against the reference core's per-task loop.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.block import BlockId
from repro.cluster.cluster import ClusterConfig
from repro.cluster.memory_store import store_mode
from repro.cluster.placement import PLACEMENTS
from repro.control.messages import PurgeOrder
from repro.control.plane import RpcConfig, RpcControlPlane
from repro.dag.dag_builder import build_dag
from repro.experiments.harness import build_workload_dag, cache_mb_for
from repro.simulator.engine import SCHEDULERS, SparkSimulator, simulate
from repro.simulator.failures import FailurePlan
from repro.simulator.metrics import RunMetrics
from repro.trace.recorder import TraceRecorder
from repro.trace.replay import SCHEME_BUILDERS, build_scheme
from repro.workloads.registry import workload_names
from repro.workloads.synthetic import SyntheticConfig, generate_application

CLUSTER = ClusterConfig(num_nodes=4, slots_per_node=2, cache_mb_per_node=50.0)


def fingerprint(m: RunMetrics) -> tuple:
    """Every observable RunMetrics field, as one comparable value."""
    return (
        m.jct,
        m.stats.accesses, m.stats.hits, m.stats.misses,
        m.stats.insertions, m.stats.failed_insertions,
        m.stats.evictions, m.stats.purged,
        m.stats.prefetches_issued, m.stats.prefetches_used,
        m.stats.prefetched_mb, m.stats.evicted_mb,
        tuple(m.per_node_hit_ratio),
        m.failure_lost_blocks,
        tuple((r.seq, r.start, r.end, r.num_tasks) for r in m.stage_records),
        m.control.delivered, m.control.dropped, m.control.stale_orders,
        m.control.orders_applied,
    )


def run_both(dag, cfg, scheme_name: str, **kwargs) -> tuple[tuple, tuple]:
    results = [
        fingerprint(simulate(dag, cfg, build_scheme(scheme_name),
                             scheduler=s, **kwargs))
        for s in SCHEDULERS
    ]
    return results[0], results[1]


@pytest.mark.parametrize("workload", workload_names())
@pytest.mark.parametrize("scheme_name", sorted(SCHEME_BUILDERS))
def test_equivalent_on_every_workload_and_policy(workload, scheme_name):
    """Full cross product: 20 workloads x 10 policies, under cache
    pressure (40% of the peak live set) so evictions and prefetches
    actually fire."""
    dag = build_workload_dag(workload, partitions=8)
    cfg = CLUSTER.with_cache(cache_mb_for(dag, 0.4, CLUSTER))
    event, reference = run_both(dag, cfg, scheme_name)
    assert event == reference


@pytest.mark.parametrize("scheme_name", ["lru", "mrd"])
def test_equivalent_under_failure_injection(scheme_name):
    """Node failures cancel in-flight prefetches and reroute blocks —
    the lazy-invalidation path of the event core's prefetch heap."""
    dag = build_workload_dag("PO", partitions=8)
    cfg = CLUSTER.with_cache(cache_mb_for(dag, 0.4, CLUSTER))
    plan = FailurePlan().add(at_seq=3, node_id=1).add(at_seq=6, node_id=2, lose_disk=True)
    event, reference = run_both(dag, cfg, scheme_name, failure_plan=plan)
    assert event == reference


def test_equivalent_traces_recorded():
    """Both cores emit the same structured trace, event for event."""
    dag = build_workload_dag("KM", partitions=8)
    cfg = CLUSTER.with_cache(cache_mb_for(dag, 0.4, CLUSTER))
    traces = []
    for scheduler in SCHEDULERS:
        recorder = TraceRecorder()
        simulate(dag, cfg, build_scheme("mrd"), scheduler=scheduler,
                 recorder=recorder)
        traces.append([ev.to_dict() for ev in recorder.events])
    assert traces[0] == traces[1]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 40),
    num_jobs=st.integers(2, 8),
    cache=st.floats(4.0, 120.0),
    scheme_name=st.sampled_from(sorted(SCHEME_BUILDERS)),
)
def test_equivalent_on_random_applications(seed, num_jobs, cache, scheme_name):
    """Property form: random synthetic DAGs, any policy, any pressure."""
    dag = build_dag(generate_application(
        seed, SyntheticConfig(num_jobs=num_jobs, partitions=8)
    ))
    cfg = CLUSTER.with_cache(cache)
    event, reference = run_both(dag, cfg, scheme_name)
    assert event == reference


@pytest.mark.parametrize("scheme_name", ["lru", "mrd", "mrd-prefetch"])
def test_equivalent_under_rpc_control_plane(scheme_name):
    """Nonzero control latency, jitter and loss: the delayed-delivery
    heap must interleave identically with both scheduler cores."""
    dag = build_workload_dag("PR", partitions=8)
    cfg = CLUSTER.with_cache(cache_mb_for(dag, 0.4, CLUSTER))
    rpc = RpcConfig(latency_s=2.0, jitter_s=0.5, loss_rate=0.05, seed=3)
    event, reference = run_both(dag, cfg, scheme_name,
                                control_plane="rpc", control_config=rpc)
    assert event == reference


@pytest.mark.parametrize("workload", ["KM", "PR", "CC"])
@pytest.mark.parametrize("scheme_name", sorted(SCHEME_BUILDERS))
def test_rpc_at_zero_matches_instant(workload, scheme_name):
    """An rpc plane with all knobs at zero is semantically invisible:
    same fingerprint and the same whole ``ControlPlaneStats`` (``sent``
    included) as the default instant plane, on either core — although
    the instant plane builds no status reports or table broadcasts."""
    dag = build_workload_dag(workload, partitions=8)
    cfg = CLUSTER.with_cache(cache_mb_for(dag, 0.4, CLUSTER))
    m = simulate(dag, cfg, build_scheme(scheme_name))
    instant = (fingerprint(m), asdict(m.control))
    for scheduler in SCHEDULERS:
        m = simulate(
            dag, cfg, build_scheme(scheme_name), scheduler=scheduler,
            control_plane="rpc", control_config=RpcConfig(latency_s=0.0),
        )
        assert (fingerprint(m), asdict(m.control)) == instant


@pytest.mark.parametrize("scheme_name", sorted(SCHEME_BUILDERS))
def test_columnar_store_matches_object_store(scheme_name):
    """The columnar block store is an acceleration index only: both
    store modes, on both scheduler cores, one fingerprint."""
    dag = build_workload_dag("KM", partitions=8)
    cfg = CLUSTER.with_cache(cache_mb_for(dag, 0.4, CLUSTER))
    fps = set()
    for scheduler in SCHEDULERS:
        for columnar in (True, False):
            with store_mode(columnar):
                fps.add(fingerprint(simulate(
                    dag, cfg, build_scheme(scheme_name), scheduler=scheduler
                )))
    assert len(fps) == 1


@pytest.mark.parametrize("scheme_name", ["lru", "mrd"])
def test_cache_bound_profile_equivalent_across_store_modes(scheme_name):
    """The benchmark's cache-bound profile (severely undersized cache):
    eviction, purge and prefetch churn all flow through the columnar
    fast paths, and the metrics must not move by a bit."""
    from repro.bench.engine_bench import BenchConfig, build_bench_dag

    bench = BenchConfig(min_tasks=600, num_nodes=8, repeats=1)
    dag = build_bench_dag(bench, "cache")
    cfg = bench.cluster().with_cache(40.0)
    fps = set()
    for scheduler in SCHEDULERS:
        for columnar in (True, False):
            with store_mode(columnar):
                fps.add(fingerprint(simulate(
                    dag, cfg, build_scheme(scheme_name), scheduler=scheduler
                )))
    assert len(fps) == 1


def test_tenancy_route_equivalent_across_store_modes():
    """Shared-cluster runs (ArbitratedNodePolicy + tenant store views)
    take the batch-unsupported fallbacks; both store modes must agree
    per app and on the makespan."""
    from repro.tenancy import AppSpec, FixedArrivals, MultiTenantSimulator

    specs = [
        AppSpec(workload="KM", scheme="MRD", partitions=8),
        AppSpec(workload="PR", scheme="LRU", partitions=8),
    ]
    results = set()
    for columnar in (True, False):
        with store_mode(columnar):
            mt = MultiTenantSimulator(
                specs, CLUSTER.with_cache(30.0),
                arrivals=FixedArrivals(interval=5.0),
            ).run()
        results.add(
            (mt.makespan, tuple(fingerprint(app) for app in mt.apps))
        )
    assert len(results) == 1


def test_unknown_scheduler_rejected():
    dag = build_workload_dag("KM", partitions=8)
    with pytest.raises(ValueError, match="scheduler"):
        SparkSimulator(dag, CLUSTER, build_scheme("lru"), scheduler="fifo")


# ----------------------------------------------------------------------
# cache-inert stages: the event core's closed form vs the per-task loop
# ----------------------------------------------------------------------
def run_both_recorded(dag, cfg, scheme_name: str, **kwargs) -> list[tuple]:
    """Per core: the metrics fingerprint and the recorded event stream."""
    results = []
    for scheduler in SCHEDULERS:
        recorder = TraceRecorder()
        metrics = simulate(dag, cfg, build_scheme(scheme_name),
                           scheduler=scheduler, recorder=recorder, **kwargs)
        results.append(
            (fingerprint(metrics), [ev.to_dict() for ev in recorder.events])
        )
    return results


def inert_case_kwargs(seed: int, rpc: bool, placement: str, churn: bool) -> dict:
    """Engine options for the inert-stage cases: an optional lossy,
    jittered rpc plane with a control outage, and optional churn."""
    kwargs: dict = {"placement": placement}
    plan = FailurePlan()
    if rpc:
        kwargs["control_plane"] = "rpc"
        kwargs["control_config"] = RpcConfig(
            latency_s=0.2, jitter_s=0.3, loss_rate=0.05, seed=seed
        )
        plan.add_outage(from_seq=2, to_seq=4, loss_rate=0.5)
    if churn:
        plan.add_join(at_seq=2).add_decommission(at_seq=5)
    if plan.outages or plan.memberships:
        kwargs["failure_plan"] = plan
    return kwargs


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 60),
    num_jobs=st.integers(2, 6),
    partitions=st.integers(3, 13),
    num_nodes=st.integers(2, 5),
    slots=st.integers(1, 3),
    heterogeneity=st.floats(0.05, 0.6),
    cache=st.floats(4.0, 120.0),
    scheme_name=st.sampled_from(["lru", "mrd", "mrd-prefetch"]),
    rpc=st.booleans(),
    placement=st.sampled_from(PLACEMENTS),
    churn=st.booleans(),
)
def test_inert_stages_equivalent_on_random_applications(
    seed, num_jobs, partitions, num_nodes, slots, heterogeneity, cache,
    scheme_name, rpc, placement, churn,
):
    """Random applications with inert stages: heterogeneous per-node
    costs, task counts that need not divide nodes x slots, rpc
    deliveries and MRD prefetch completions falling due mid-stage,
    rendezvous placement under churn.  Metrics and the recorded event
    stream must equal the reference core's."""
    dag = build_dag(generate_application(seed, SyntheticConfig(
        num_jobs=num_jobs, partitions=partitions, cache_probability=0.3,
    )))
    cfg = ClusterConfig(
        num_nodes=num_nodes, slots_per_node=slots, cache_mb_per_node=cache,
        heterogeneity=heterogeneity, heterogeneity_seed=seed,
    )
    kwargs = inert_case_kwargs(seed, rpc, placement, churn)
    event, reference = run_both_recorded(dag, cfg, scheme_name, **kwargs)
    assert event == reference


def test_inert_stages_apply_deliveries_and_prefetches_mid_stage(monkeypatch):
    """The random suite is only as good as its coverage: on this
    application, rpc deliveries and prefetch completions really do fall
    due inside inert stages — and both cores still agree."""
    seen: Counter[str] = Counter()
    inside: list[bool] = []
    run_inert = SparkSimulator._run_inert_stage
    pump = RpcControlPlane.pump
    apply_due = SparkSimulator._apply_due_prefetches

    def spy_inert(self, *args):
        seen["inert"] += 1
        inside.append(True)
        try:
            return run_inert(self, *args)
        finally:
            inside.pop()

    def spy_pump(self, t):
        seen["pump"] += bool(inside)
        return pump(self, t)

    def spy_apply(self, t):
        seen["apply"] += bool(inside)
        return apply_due(self, t)

    monkeypatch.setattr(SparkSimulator, "_run_inert_stage", spy_inert)
    monkeypatch.setattr(RpcControlPlane, "pump", spy_pump)
    monkeypatch.setattr(SparkSimulator, "_apply_due_prefetches", spy_apply)
    dag = build_dag(generate_application(4, SyntheticConfig(
        num_jobs=5, partitions=7, cache_probability=0.3,
    )))
    cfg = ClusterConfig(
        num_nodes=3, slots_per_node=2, cache_mb_per_node=30.0,
        heterogeneity=0.3, heterogeneity_seed=4,
    )
    kwargs = inert_case_kwargs(4, rpc=True, placement="stride", churn=False)
    event, reference = run_both_recorded(dag, cfg, "mrd", **kwargs)
    assert event == reference
    assert seen["inert"] > 0 and seen["pump"] > 0 and seen["apply"] > 0


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_inert_stage_applies_due_heads_at_next_wave_start(scheduler):
    """Hand-built: a prefetch completion due at f/4 and a control
    delivery due at 3f/4, both between the first two wave starts (0 and
    f).  Each core applies both at the second wave's start, delivery
    first (pump before prefetches, as the loop orders them), and the
    stage ends after three waves."""
    dag = build_dag(generate_application(0, SyntheticConfig(
        num_jobs=2, partitions=24, cache_probability=0.0,
    )))
    sim = SparkSimulator(dag, CLUSTER, build_scheme("lru"), scheduler=scheduler,
                         control_plane="rpc", control_config=RpcConfig())
    sim._start_run(0.0)
    stage = dag.active_stages[0]
    assert not stage.cache_reads and not stage.cache_writes
    # 24 tasks over 4 nodes x 2 slots: three waves of one chain.
    fixed = sim._stage_costs(stage)
    assert len(set(fixed)) == 1
    f = fixed[0]

    log: list[tuple[str, float]] = []
    clock = {"pump": -1.0, "apply": -1.0}
    pump = sim.control.pump
    apply_due = sim._apply_due_prefetches
    complete = sim._complete_prefetch

    def timed_pump(t):
        clock["pump"] = t
        pump(t)

    def timed_apply(t):
        clock["apply"] = t
        apply_due(t)

    def logged_complete(mgr, bid):
        log.append(("complete", clock["apply"]))
        complete(mgr, bid)

    def deliver(msg, at):
        log.append(("deliver", clock["pump"]))
        return False

    sim.control.pump = timed_pump
    sim._apply_due_prefetches = timed_apply
    sim._complete_prefetch = logged_complete
    mgr = sim.cluster.master.managers[0]
    bid = BlockId(10_000, 0)  # on no disk: the completion cancels
    mgr.inflight_prefetch[bid] = f / 4
    heapq.heappush(sim._prefetch_heap, (f / 4, 0, 0, bid))
    order = PurgeOrder(sent_at=0.0, node_id=0, rdd_id=10_000, issued_seq=0)
    heapq.heappush(sim.control.heap, (3 * f / 4, 0, order, deliver))

    if scheduler == "reference":
        end = sim._run_stage_reference(stage, 0.0)
    else:
        end = sim._run_inert_stage(sim._pending_by_node(stage), sim._stage_costs(stage), 0.0)
    assert log == [("deliver", f), ("complete", f)]
    assert end == 0.0 + f + f + f
