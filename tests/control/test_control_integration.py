"""Engine-level control-plane behavior: staleness, loss, fault tolerance.

The transport-level contracts live in ``test_plane.py``; these tests
drive full simulations and assert the *consequences*: an rpc plane at
zero latency is invisible, nonzero latency degrades only schemes that
depend on driver state, outage windows drop traffic, and a replaced
worker gets the distance table re-issued (paper §4.4).
"""

import pytest

from repro.cluster.cluster import ClusterConfig
from repro.control.plane import RpcConfig
from repro.core.policy import MrdScheme
from repro.dag.dag_builder import build_dag
from repro.policies.scheme import LruScheme
from repro.simulator.engine import SparkSimulator, simulate
from repro.simulator.failures import FailurePlan
from repro.simulator.reporting import metrics_to_dict
from repro.tenancy import AppSpec, FixedArrivals, MultiTenantSimulator
from repro.trace.recorder import TraceRecorder
from tests.conftest import make_iterative_app


def config(cache_mb: float = 40.0) -> ClusterConfig:
    return ClusterConfig(num_nodes=2, slots_per_node=2, cache_mb_per_node=cache_mb)


def dag():
    return build_dag(make_iterative_app(iterations=4))


def fingerprint(m) -> tuple:
    return (
        m.jct, m.stats.accesses, m.stats.hits, m.stats.evictions,
        m.stats.purged, m.stats.prefetches_issued, m.stats.prefetches_used,
        tuple(m.per_node_hit_ratio),
        tuple((r.seq, r.start, r.end) for r in m.stage_records),
    )


class TestInstantPlane:
    def test_is_the_default_and_counts_traffic(self):
        m = simulate(dag(), config(), MrdScheme())
        assert m.control_plane == "instant"
        assert m.control.sent == m.control.delivered > 0
        assert m.control.dropped == 0
        assert m.control.mean_order_delay == 0.0

    def test_unknown_plane_rejected(self):
        with pytest.raises(ValueError, match="control_plane"):
            SparkSimulator(dag(), config(), MrdScheme(), control_plane="smoke-signals")


def observable(m) -> dict:
    """Every reported field of a run, including the whole
    ``ControlPlaneStats``, except the plane's name."""
    d = metrics_to_dict(m)
    del d["control_plane"]
    return d


class TestRpcZeroEqualsInstant:
    """The instant plane is synchronous: it skips building status
    reports and applies table broadcasts directly.  A zero-latency rpc
    plane sends every one of those messages, so equal results — counters
    included — show the skipped messages changed nothing observable."""

    @pytest.mark.parametrize("scheme_factory", [
        MrdScheme, LruScheme,
        lambda: MrdScheme(prefetch=False), lambda: MrdScheme(evict=False),
    ])
    def test_zero_latency_zero_loss_matches(self, scheme_factory):
        base = simulate(dag(), config(), scheme_factory())
        rpc = simulate(
            dag(), config(), scheme_factory(),
            control_plane="rpc", control_config=RpcConfig(latency_s=0.0),
        )
        assert fingerprint(base) == fingerprint(rpc)
        assert observable(base) == observable(rpc)
        assert rpc.control_plane == "rpc"

    def test_replacement_registration_matches(self):
        # A replaced worker's WorkerRegister makes the driver re-issue
        # its distance table to that one node (paper §4.4).
        def run(**kwargs):
            plan = FailurePlan().add(at_seq=3, node_id=1).add(at_seq=6, node_id=0)
            return simulate(dag(), config(), MrdScheme(), failure_plan=plan, **kwargs)

        base = run()
        rpc = run(control_plane="rpc", control_config=RpcConfig(latency_s=0.0))
        assert base.failure_lost_blocks > 0
        assert observable(base) == observable(rpc)

    def test_two_app_global_mrd_tenancy_matches(self, monkeypatch):
        # Tenant routing: each application's table lands on its own
        # tenant policy whether it is delivered or applied directly.  A
        # monitor without a view falls back to the live table, which
        # equals the snapshot under both planes here, so the held views
        # are checked as well as the results.  A finished driver is
        # dropped after teardown, so the views are read at teardown.
        teardown = MultiTenantSimulator._teardown

        def run(**kwargs):
            apps = [
                AppSpec(workload="KM", scheme="MRD", partitions=8),
                AppSpec(workload="PR", scheme="MRD", partitions=8),
            ]
            sim = MultiTenantSimulator(
                apps, config(cache_mb=30.0), arrivals=FixedArrivals(interval=2.0),
                arbitration="global-mrd", **kwargs,
            )
            views = {}

            def reading_views(self, app, t):
                views[app.index] = [
                    (p._view_seq, p._distances is not None)
                    for p in app.driver._tenant_policies
                ]
                teardown(self, app, t)

            monkeypatch.setattr(MultiTenantSimulator, "_teardown", reading_views)
            result = sim.run()
            return result, [views[index] for index in range(len(apps))]

        base, base_views = run()
        rpc, rpc_views = run(control_plane="rpc", control_config=RpcConfig(latency_s=0.0))
        assert base.makespan == rpc.makespan
        assert [observable(m) for m in base.apps] == [observable(m) for m in rpc.apps]
        assert all(m.control.sent > 0 for m in base.apps)
        last_seqs = [m.stage_records[-1].seq for m in base.apps]
        assert base_views == rpc_views == [
            [(seq, True)] * 2 for seq in last_seqs
        ]


class TestLatencyStaleness:
    def test_latency_leaves_lru_untouched(self):
        base = simulate(dag(), config(), LruScheme())
        slow = simulate(
            dag(), config(), LruScheme(),
            control_plane="rpc", control_config=RpcConfig(latency_s=3.0),
        )
        assert fingerprint(base) == fingerprint(slow)
        assert slow.control.stale_orders == 0

    def test_latency_degrades_mrd_and_counts_staleness(self):
        base = simulate(dag(), config(cache_mb=30.0), MrdScheme())
        slow = simulate(
            dag(), config(cache_mb=30.0), MrdScheme(),
            control_plane="rpc", control_config=RpcConfig(latency_s=3.0),
        )
        assert slow.control.stale_orders > 0
        assert slow.control.mean_order_delay == pytest.approx(3.0)
        # Orders land late, so the cache serves fewer of the reads the
        # driver planned for.
        assert slow.stats.hits <= base.stats.hits
        assert slow.jct >= base.jct

    def test_deliveries_are_deterministic_across_runs(self):
        cfg = RpcConfig(latency_s=0.4, jitter_s=0.3, loss_rate=0.1, seed=11)
        a = simulate(dag(), config(), MrdScheme(),
                     control_plane="rpc", control_config=cfg)
        b = simulate(dag(), config(), MrdScheme(),
                     control_plane="rpc", control_config=cfg)
        assert fingerprint(a) == fingerprint(b)
        assert a.control.dropped == b.control.dropped > 0


class TestOutages:
    def test_outage_window_drops_control_traffic(self):
        plan = FailurePlan().add_outage(from_seq=0, to_seq=99, loss_rate=1.0)
        m = simulate(
            dag(), config(), MrdScheme(), failure_plan=plan,
            control_plane="rpc", control_config=RpcConfig(latency_s=0.0),
        )
        # Bootstrap registration is send_local and survives; everything
        # else in the window is lost.
        assert m.control.dropped > 0
        assert m.stats.purged == 0 and m.stats.prefetches_issued == 0

    def test_outage_ignored_by_instant_plane(self):
        plan = FailurePlan().add_outage(from_seq=0, to_seq=99, loss_rate=1.0)
        base = simulate(dag(), config(), MrdScheme())
        m = simulate(dag(), config(), MrdScheme(), failure_plan=plan)
        assert fingerprint(m) == fingerprint(base)
        assert m.control.dropped == 0


class TestFaultTolerance:
    def test_failed_worker_reregisters_and_gets_table(self):
        plan = FailurePlan().add(at_seq=3, node_id=1)
        rec = TraceRecorder()
        m = simulate(
            dag(), config(), MrdScheme(), failure_plan=plan, recorder=rec,
            control_plane="rpc", control_config=RpcConfig(latency_s=0.01),
        )
        assert m.failure_lost_blocks > 0
        kinds = [(e.kind, getattr(e, "msg", None)) for e in rec.events]
        assert ("msg_send", "worker_register") in kinds
        # The driver answers the (re-)registration with a table snapshot.
        assert ("msg_send", "stage_boundary") in kinds

    def test_run_completes_under_failure_plus_latency(self):
        plan = FailurePlan().add(at_seq=2, node_id=0).add(at_seq=5, node_id=1)
        m = simulate(
            dag(), config(), MrdScheme(), failure_plan=plan,
            control_plane="rpc", control_config=RpcConfig(latency_s=1.0),
        )
        assert m.jct > 0
        assert m.control.sent == m.control.delivered + m.control.dropped


class TestMessageTrace:
    def test_rpc_records_message_events_instant_does_not(self):
        rec_i = TraceRecorder()
        simulate(dag(), config(), MrdScheme(), recorder=rec_i)
        assert not [e for e in rec_i.events if e.kind.startswith("msg_")]

        rec_r = TraceRecorder()
        simulate(
            dag(), config(), MrdScheme(), recorder=rec_r,
            control_plane="rpc", control_config=RpcConfig(latency_s=0.5),
        )
        sends = [e for e in rec_r.events if e.kind == "msg_send"]
        delivers = [e for e in rec_r.events if e.kind == "msg_deliver"]
        assert sends and delivers
        # Every networked delivery happens at its send's promised time;
        # only the bootstrap registrations (send_local, synchronous by
        # contract) bypass the modeled latency.
        for e in delivers:
            if e.msg == "worker_register":
                assert e.t == e.sent_at == 0.0
            else:
                assert e.t == e.sent_at + 0.5
