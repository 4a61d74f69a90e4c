"""Scheduler-core equivalence: event queue vs reference loops.

The event-queue core (global slot heap + prefetch-completion heap) is a
pure performance rewrite of the reference core (per-task ``min()`` over
all nodes + per-task scan of every in-flight dict).  These tests pin
the contract down: identical :class:`RunMetrics` — times, counters,
per-node ratios, stage records — on every registered workload under
every registered policy, plus the edge paths (failure injection,
unpersist-in-flight, trace recording) the happy path doesn't exercise.

Stages whose tasks all last exactly their node's fixed cost — cache-inert
(no cached reads or writes), hit-only and write-only — take the event
core's closed form instead of its slot heap; the last two sections pin
that path down against the reference core and against the per-task
loop, and check each condition under which it must decline.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import random
from collections import Counter, deque
from collections.abc import Mapping
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.block import BlockId
from repro.cluster.cluster import ClusterConfig
from repro.cluster.memory_store import store_mode
from repro.cluster.placement import PLACEMENTS
from repro.control.messages import PurgeOrder
from repro.control.plane import RpcConfig, RpcControlPlane
from repro.dag.context import SparkApplication, SparkContext
from repro.dag.dag_builder import build_dag
from repro.dag.rdd import RDD, NarrowDependency
from repro.experiments.harness import build_workload_dag, cache_mb_for
from repro.simulator.engine import SCHEDULERS, EventLoop, SparkSimulator, simulate
from repro.simulator.failures import FailurePlan
from repro.simulator.metrics import RunMetrics
from repro.sweep.schemes import SCHEME_SPECS, resolve_scheme
from repro.trace.recorder import TraceRecorder
from repro.workloads.registry import workload_names
from repro.workloads.synthetic import SyntheticConfig, generate_application

CLUSTER = ClusterConfig(num_nodes=4, slots_per_node=2, cache_mb_per_node=50.0)

#: Every scheme name, spelled in lower case: the resolver takes any case.
SCHEME_NAMES = sorted(name.lower() for name in SCHEME_SPECS)


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
        fingerprint(simulate(dag, cfg, resolve_scheme(scheme_name).build(),
                             scheduler=s, **kwargs))
        for s in SCHEDULERS
    ]
    return results[0], results[1]


@pytest.mark.parametrize("workload", workload_names())
@pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
def test_equivalent_on_every_workload_and_policy(workload, scheme_name):
    """Full cross product: 20 workloads x 12 policies, under cache
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
        simulate(dag, cfg, resolve_scheme("mrd").build(), scheduler=scheduler,
                 recorder=recorder)
        traces.append([ev.to_dict() for ev in recorder.events])
    assert traces[0] == traces[1]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 40),
    num_jobs=st.integers(2, 8),
    cache=st.floats(4.0, 120.0),
    scheme_name=st.sampled_from(SCHEME_NAMES),
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
@pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
def test_rpc_at_zero_matches_instant(workload, scheme_name):
    """An rpc plane with all knobs at zero is semantically invisible:
    same fingerprint and the same whole ``ControlPlaneStats`` (``sent``
    included) as the default instant plane, on either core — although
    the instant plane builds no status reports or table broadcasts."""
    dag = build_workload_dag(workload, partitions=8)
    cfg = CLUSTER.with_cache(cache_mb_for(dag, 0.4, CLUSTER))
    m = simulate(dag, cfg, resolve_scheme(scheme_name).build())
    instant = (fingerprint(m), asdict(m.control))
    for scheduler in SCHEDULERS:
        m = simulate(
            dag, cfg, resolve_scheme(scheme_name).build(), scheduler=scheduler,
            control_plane="rpc", control_config=RpcConfig(latency_s=0.0),
        )
        assert (fingerprint(m), asdict(m.control)) == instant


@pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
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
                    dag, cfg, resolve_scheme(scheme_name).build(), scheduler=scheduler
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
                    dag, cfg, resolve_scheme(scheme_name).build(), scheduler=scheduler
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
        SparkSimulator(dag, CLUSTER, resolve_scheme("lru").build(), scheduler="fifo")


# ----------------------------------------------------------------------
# cache-inert stages: the event core's closed form vs the per-task loop
# ----------------------------------------------------------------------
def run_both_recorded(dag, cfg, scheme_name: str, **kwargs) -> list[tuple]:
    """Per core: the metrics fingerprint and the recorded event stream."""
    results = []
    for scheduler in SCHEDULERS:
        recorder = TraceRecorder()
        metrics = simulate(dag, cfg, resolve_scheme(scheme_name).build(),
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
    run_closed = SparkSimulator._run_closed_stage
    pump = RpcControlPlane.pump
    apply_due = SparkSimulator._apply_due_prefetches

    def spy_closed(self, stage, *args):
        inert = not stage.cache_reads and not stage.cache_writes
        seen["inert"] += inert
        inside.append(inert)
        try:
            return run_closed(self, stage, *args)
        finally:
            inside.pop()

    def spy_pump(self, t):
        seen["pump"] += any(inside)
        return pump(self, t)

    def spy_apply(self, t):
        seen["apply"] += any(inside)
        return apply_due(self, t)

    monkeypatch.setattr(SparkSimulator, "_run_closed_stage", spy_closed)
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
    sim = SparkSimulator(dag, CLUSTER, resolve_scheme("lru").build(), scheduler=scheduler,
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
        end = sim._run_closed_stage(
            stage, sim._pending_by_node(stage), sim._stage_costs(stage), 0.0
        )
    assert log == [("deliver", f), ("complete", f)]
    assert end == 0.0 + f + f + f


# ----------------------------------------------------------------------
# hit-only and write-only stages: the closed form's cache replay
# ----------------------------------------------------------------------
def stage_kind(stage) -> str:
    if stage.cache_reads and stage.cache_writes:
        return "reads and writes"
    if stage.cache_reads:
        return "reads"
    return "writes" if stage.cache_writes else "inert"


def decline_conditions(sim, stage, tasks, fixed, start) -> set[str]:
    """Why the closed form must decline ``stage`` now, judged from the
    engine's state independently of the closed form itself (empty for
    a stage it must take)."""
    kind = stage_kind(stage)
    if kind == "inert":
        return set()
    found = set()
    if kind == "reads and writes":
        found.add(kind)
    if sim.recorder.enabled:
        found.add("recorded")
    last_start = start
    for node_id, partitions in enumerate(tasks):
        t = start
        for _ in range(-(-len(partitions) // sim.cluster.nodes[node_id].num_slots) - 1):
            t = t + fixed[node_id]
        if partitions:
            last_start = max(last_start, t)
    if sim.control.heap and sim.control.heap[0][0] <= last_start:
        found.add("delivery due")
    if sim._prefetch_heap and sim._prefetch_heap[0][0] <= last_start:
        found.add("completion due")
    reads, writes, _ = sim._stage_plan(stage)
    managers = sim.cluster.master.managers
    for node_id, partitions in enumerate(tasks):
        mgr = managers[node_id]
        for p in partitions:
            if kind == "writes":
                if any(home != node_id for _, home in writes[p]):
                    found.add("remote write")
                continue
            for bid, home, _ in reads[p]:
                if home != node_id:
                    found.add("remote read")
                elif bid in mgr.inflight_prefetch:
                    found.add("in flight")
                elif bid not in mgr.node.memory:
                    found.add("not resident")
    return found


class ClosedFormSpy:
    """Records every offer to the closed form: the stage kind, whether
    it was taken, and the decline conditions that held at the offer."""

    def __init__(self, monkeypatch) -> None:
        self.offers: list[tuple[str, bool, set[str]]] = []
        run_closed = SparkSimulator._run_closed_stage

        def spy(sim, stage, tasks, fixed, start):
            found = decline_conditions(sim, stage, tasks, fixed, start)
            end = run_closed(sim, stage, tasks, fixed, start)
            self.offers.append((stage_kind(stage), end is not None, found))
            return end

        monkeypatch.setattr(SparkSimulator, "_run_closed_stage", spy)

    def taken(self, *kinds: str) -> int:
        return sum(taken for kind, taken, _ in self.offers if kind in kinds)

    def declined_for(self, condition: str) -> int:
        return sum(
            not taken and condition in found for _, taken, found in self.offers
        )

    def check_rule(self) -> None:
        """Taken exactly when no decline condition held."""
        for kind, taken, found in self.offers:
            assert taken == (not found), (kind, found)


def _plain(value):
    """``value`` as comparable plain data; objects shared across nodes
    (the scheme's manager or oracle, the store a policy is bound to)
    reduce to their type name."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, itertools.count):
        return repr(value)
    if isinstance(value, random.Random):
        return value.getstate()
    if dataclasses.is_dataclass(value):
        return _plain(dataclasses.asdict(value))
    if isinstance(value, Mapping):
        return [(_plain(k), _plain(v)) for k, v in value.items()]
    if isinstance(value, (set, frozenset)):
        return sorted((_plain(v) for v in value), key=repr)
    if isinstance(value, (list, tuple, deque)):
        return [_plain(v) for v in value]
    return type(value).__name__


def node_states(sim) -> list:
    """Every node's full cache state: the store with its columns and
    block order, the disk, the eviction policy's own bookkeeping (LRU
    recency order, touch stamps, CacheMonitor order), the manager's
    counters and prefetch sets."""
    return [
        _plain((
            vars(mgr.node.memory), list(mgr.node.disk.block_ids()),
            mgr.node.io_free_at, vars(mgr.node.policy), mgr.stats,
            mgr._prefetched_unread, mgr.inflight_prefetch,
        ))
        for mgr in sim.cluster.master.managers
    ]


def states_per_stage(monkeypatch, run) -> tuple[RunMetrics, list]:
    """``run()``'s metrics and every node's state at each stage end."""
    states: list = []
    record = SparkSimulator._record_stage

    def spy(sim, stage, start, end):
        states.append(node_states(sim))
        return record(sim, stage, start, end)

    with monkeypatch.context() as m:
        m.setattr(SparkSimulator, "_record_stage", spy)
        metrics = run()
    return metrics, states


#: (seed, scheme, nodes, slots, heterogeneity, cache MB, placement):
#: every policy, large caches that keep every read a hit and tight ones
#: whose write-only stages evict.  A scheme's position is its seed; the
#: MRD mode and metric variants go last, so the other schemes' seeds
#: (and case ids) do not depend on them.
FIXED_COST_CASES = [
    (seed, scheme, 2 + seed % 3, 1 + seed % 3, 0.3 * (seed % 2), cache, placement)
    for seed, scheme in enumerate(sorted(
        SCHEME_NAMES, key=lambda name: (name in ("mrd-adhoc", "mrd-jobdist"), name)
    ))
    for cache, placement in ((10_000.0, "stride"), (24.0, "rendezvous"))
]


@pytest.mark.parametrize(
    "seed, scheme_name, num_nodes, slots, heterogeneity, cache, placement",
    FIXED_COST_CASES,
)
def test_fixed_cost_stages_equivalent(
    monkeypatch, seed, scheme_name, num_nodes, slots, heterogeneity, cache,
    placement,
):
    """Random applications whose stages are hit-only or write-only
    (task counts a multiple of the nodes).  Metrics equal the reference
    core's, and after every stage each node's full state equals the one
    the per-task loop leaves when the closed form always declines."""
    dag = build_dag(generate_application(seed, SyntheticConfig(
        num_jobs=5, partitions=num_nodes * 3, cache_probability=0.5,
    )))
    cfg = ClusterConfig(
        num_nodes=num_nodes, slots_per_node=slots, cache_mb_per_node=cache,
        heterogeneity=heterogeneity, heterogeneity_seed=seed,
    )

    def run(scheduler="event"):
        return simulate(dag, cfg, resolve_scheme(scheme_name).build(),
                        scheduler=scheduler, placement=placement)

    spy = ClosedFormSpy(monkeypatch)
    metrics, closed_states = states_per_stage(monkeypatch, run)
    assert spy.taken("reads", "writes") > 0
    spy.check_rule()
    assert fingerprint(metrics) == fingerprint(run("reference"))
    monkeypatch.setattr(SparkSimulator, "_run_closed_stage", lambda *args: None)
    declined, loop_states = states_per_stage(monkeypatch, run)
    assert fingerprint(declined) == fingerprint(metrics)
    assert closed_states == loop_states


def coalesced(rdd, tasks: int):
    """A narrow dependency with its own task count, as coalesce has."""
    return RDD(rdd.ctx, [NarrowDependency(rdd)], num_partitions=tasks,
               partition_size_mb=1.0, compute_cost=0.5, name=f"{rdd.name}-{tasks}")


def two_job_app(
    read_tasks: int = 8, write_tasks: int = 8,
    cache_twice: bool = False, evict_first: bool = False,
):
    """Job 0 persists ``data`` (8 partitions of 8 MB) in ``write_tasks``
    tasks, a write-only stage; an optional job persists ``junk`` to push
    ``data`` out; the last job reads ``data`` in ``read_tasks`` tasks
    (hit-only while resident), or reads it and persists a copy
    (``cache_twice``)."""
    ctx = SparkContext("fixed-cost")
    data = ctx.text_file("in", size_mb=64.0, num_partitions=8).map(name="data").cache()
    coalesced(data, write_tasks).count()
    if evict_first:
        junk = ctx.text_file("junk", size_mb=64.0, num_partitions=8)
        junk.map(name="junk").cache().count()
    if cache_twice:
        data.map(name="copy").cache().count()
    else:
        coalesced(data, read_tasks).count()
    return build_dag(SparkApplication(ctx))


TWO_NODES = ClusterConfig(num_nodes=2, slots_per_node=2, cache_mb_per_node=1_000.0)


@pytest.mark.parametrize("side", ["read", "write"])
@pytest.mark.parametrize("tasks, taken", [(3, False), (4, True)])
def test_remote_read_or_write_declines(monkeypatch, side, tasks, taken):
    """Stride placement gives task p partitions p, p+T, … of an RDD:
    with T a multiple of the nodes each is homed on the task's node,
    otherwise some are remote and the stage runs per task."""
    spy = ClosedFormSpy(monkeypatch)
    dag = two_job_app(**{f"{side}_tasks": tasks})
    event, reference = run_both(dag, TWO_NODES, "lru")
    assert event == reference
    spy.check_rule()
    kind = f"{side}s"
    assert spy.taken(kind) == taken
    assert spy.declined_for(f"remote {side}") == (not taken)


def test_non_resident_read_declines(monkeypatch):
    """Two of each node's four ``data`` blocks fit: the rest are read
    from disk, so the stage is not hit-only."""
    spy = ClosedFormSpy(monkeypatch)
    event, reference = run_both(two_job_app(), TWO_NODES.with_cache(20.0), "lru")
    assert event == reference
    spy.check_rule()
    assert spy.declined_for("not resident")


#: MRD-prefetch keeps LRU eviction, so ``junk`` pushes ``data`` out and
#: the last boundary prefetches it back.
PREFETCH_NODES = ClusterConfig(num_nodes=2, slots_per_node=4, cache_mb_per_node=40.0)


def test_in_flight_read_declines(monkeypatch):
    """One wave per node: the prefetches of ``data`` issued at the last
    boundary are still in flight when it starts."""
    spy = ClosedFormSpy(monkeypatch)
    event, reference = run_both(
        two_job_app(evict_first=True), PREFETCH_NODES, "mrd-prefetch"
    )
    assert event == reference
    spy.check_rule()
    assert spy.declined_for("in flight")


def test_due_prefetch_completion_declines(monkeypatch):
    """One slot per node: a prefetch completes before the last of four
    waves starts."""
    spy = ClosedFormSpy(monkeypatch)
    cfg = dataclasses.replace(PREFETCH_NODES, slots_per_node=1)
    event, reference = run_both(two_job_app(evict_first=True), cfg, "mrd-prefetch")
    assert event == reference
    spy.check_rule()
    assert spy.declined_for("completion due")


def test_due_rpc_delivery_declines(monkeypatch):
    """Status reports sent at the boundary land before the last wave
    starts."""
    spy = ClosedFormSpy(monkeypatch)
    cfg = dataclasses.replace(TWO_NODES, slots_per_node=1)
    event, reference = run_both(
        two_job_app(), cfg, "lru",
        control_plane="rpc", control_config=RpcConfig(latency_s=0.01),
    )
    assert event == reference
    spy.check_rule()
    assert spy.declined_for("delivery due")


def test_reading_and_writing_stage_declines(monkeypatch):
    spy = ClosedFormSpy(monkeypatch)
    event, reference = run_both(two_job_app(cache_twice=True), TWO_NODES, "lru")
    assert event == reference
    spy.check_rule()
    assert spy.declined_for("reads and writes")


def test_recorded_run_declines(monkeypatch):
    """A recorded run stamps each hit and insertion with its task's
    time; its event stream still equals the reference core's."""
    spy = ClosedFormSpy(monkeypatch)
    event, reference = run_both_recorded(two_job_app(), TWO_NODES, "lru")
    assert event == reference
    spy.check_rule()
    assert spy.declined_for("recorded") == 2  # the write-only and hit-only stages


def test_overlapping_tenants_declines(monkeypatch):
    """Two applications submitted together: their write-only and
    hit-only stages run through the slots while both are active, and
    the whole run equals the per-task specification's."""
    from repro.tenancy import AppSpec, FixedArrivals, MultiTenantSimulator
    from repro.tenancy import engine as tenancy_engine
    from repro.tenancy.metrics import mt_metrics_to_dict
    from tests.tenancy.loop_spec import PerTaskLoop

    spy = ClosedFormSpy(monkeypatch)
    overlapped: Counter[str] = Counter()
    start_stage = EventLoop._start_stage

    def spy_start(loop, app, now):
        offers = len(spy.offers)
        together = len(loop.active) > 1
        start_stage(loop, app, now)
        if together and app.stage_idx < len(app.stages):
            kind = stage_kind(app.stages[app.stage_idx])
            overlapped[kind] += len(spy.offers) == offers

    monkeypatch.setattr(EventLoop, "_start_stage", spy_start)

    def run() -> dict:
        return mt_metrics_to_dict(MultiTenantSimulator(
            [AppSpec(workload="KM", partitions=8), AppSpec(workload="PR", partitions=8)],
            CLUSTER.with_cache(1_000.0), arrivals=FixedArrivals(interval=0.0),
        ).run())

    production = run()
    with monkeypatch.context() as m:
        m.setattr(tenancy_engine, "EventLoop", PerTaskLoop)
        spec = run()
    assert production == spec
    assert overlapped["reads"] and overlapped["writes"]
    spy.check_rule()


def test_sched_profile_runs_almost_all_tasks_in_closed_form(monkeypatch):
    """The engine benchmark's sparse-caching ``sched`` profile: at least
    95% of its tasks run in closed form under both benchmark schemes,
    hit-only and write-only stages included (cache-inert stages alone
    hold about 82%)."""
    from repro.bench.engine_bench import (
        BENCH_SCHEMES,
        BenchConfig,
        build_bench_dag,
        total_tasks,
    )

    bench = BenchConfig(min_tasks=12_000, partitions=64, repeats=1)
    dag = build_bench_dag(bench, "sched")
    closed: Counter[str] = Counter()
    run_closed = SparkSimulator._run_closed_stage

    def spy(sim, stage, *args):
        end = run_closed(sim, stage, *args)
        if end is not None:
            closed[stage_kind(stage)] += stage.num_tasks
        return end

    monkeypatch.setattr(SparkSimulator, "_run_closed_stage", spy)
    for factory in BENCH_SCHEMES.values():
        closed.clear()
        SparkSimulator(dag, bench.cluster(), factory()).run()
        assert closed["reads"] and closed["writes"]
        assert closed.total() >= 0.95 * total_tasks(dag)
