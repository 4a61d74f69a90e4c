"""Multi-tenant engine: determinism, conservation, teardown isolation."""

from __future__ import annotations

import gc
import weakref

import pytest

import repro.tenancy.engine as tenancy_engine
from repro.cluster.cluster import ClusterConfig
from repro.simulator.engine import SparkSimulator
from repro.tenancy import (
    AppSpec,
    ArbitratedNodePolicy,
    ArrivalProcess,
    FixedArrivals,
    MultiTenantSimulator,
    PoissonArrivals,
    mt_metrics_to_dict,
    simulate_multi_tenant,
)

CLUSTER = ClusterConfig(num_nodes=4, slots_per_node=2, cache_mb_per_node=60.0)

APPS = [
    AppSpec(workload="KM", scheme="MRD", partitions=8, seed=0),
    AppSpec(workload="PR", scheme="LRU", partitions=8, seed=1),
    AppSpec(workload="CC", scheme="MRD-prefetch", partitions=8, seed=2),
]


def run(apps=APPS, cfg=CLUSTER, **kwargs):
    return MultiTenantSimulator(apps, cfg, **kwargs)


class TestDeterminism:
    @pytest.mark.parametrize("arbitration", ["static", "global-mrd"])
    def test_identical_reruns(self, arbitration):
        kwargs = dict(
            arrivals=PoissonArrivals(rate=0.05, seed=9), arbitration=arbitration
        )
        a = run(**kwargs).run()
        b = run(**kwargs).run()
        assert mt_metrics_to_dict(a) == mt_metrics_to_dict(b)

    def test_arrival_seed_changes_outcome(self):
        a = run(arrivals=PoissonArrivals(rate=0.01, seed=0)).run()
        b = run(arrivals=PoissonArrivals(rate=0.01, seed=1)).run()
        assert [m.arrival_time for m in a.apps] != \
            [m.arrival_time for m in b.apps]

    def test_convenience_wrapper_matches_class(self):
        kwargs = dict(arrivals=FixedArrivals(interval=3.0), arbitration="global-mrd")
        assert mt_metrics_to_dict(simulate_multi_tenant(APPS, CLUSTER, **kwargs)) \
            == mt_metrics_to_dict(run(**kwargs).run())


class TestConservation:
    def test_every_app_finishes_with_full_accounting(self):
        mt = run(arrivals=FixedArrivals(interval=2.0)).run()
        assert len(mt.apps) == len(APPS)
        assert [m.app_id for m in mt.apps] == [0, 1, 2]
        for m, spec in zip(mt.apps, APPS):
            assert m.scheme == spec.scheme
            assert m.stats.accesses == m.stats.hits + m.stats.misses
            assert m.num_stages_executed == len(m.stage_records)
            assert m.jct > 0
        assert mt.makespan == max(m.arrival_time + m.jct for m in mt.apps)
        assert mt.makespan >= max(m.jct for m in mt.apps)

    def test_arrival_times_respected(self):
        mt = run(arrivals=FixedArrivals(interval=5.0)).run()
        assert [m.arrival_time for m in mt.apps] == [0.0, 5.0, 10.0]
        # Stage records carry absolute cluster times: no stage of app k
        # starts before app k arrives, and the last one ends at
        # arrival + jct.
        for m in mt.apps:
            assert all(r.start >= m.arrival_time for r in m.stage_records)
            assert m.stage_records[-1].end == \
                pytest.approx(m.arrival_time + m.jct)

    def test_contention_only_slows_apps_down(self):
        # Staggered far apart == effectively alone; simultaneous arrival
        # shares slots, so every JCT is at least the solo JCT.
        solo = run(arrivals=FixedArrivals(interval=10_000.0)).run()
        packed = run(arrivals=FixedArrivals(interval=0.0)).run()
        for alone, crowded in zip(solo.apps, packed.apps):
            assert crowded.jct >= alone.jct


class TestIsolation:
    def test_shared_stores_empty_after_run(self):
        sim = run(arrivals=FixedArrivals(interval=1.0))
        sim.run()
        assert sim._nodes
        for node in sim._nodes:
            assert len(node.memory) == 0

    def test_all_tenants_deregistered_after_run(self):
        sim = run(arrivals=FixedArrivals(interval=1.0))
        sim.run()
        for node in sim._nodes:
            policy = node.policy
            assert isinstance(policy, ArbitratedNodePolicy)
            assert policy._tenants == {}
            assert list(policy.eviction_order(node.memory)) == []

    def test_finished_drivers_are_freed(self, monkeypatch):
        # A finished application's driver, and with it its DAG and the
        # plans compiled on it, is unreachable once the run returns.
        compiled = []
        drivers = {}
        compile_plan = SparkSimulator._compile_plan

        def counting(driver, stage, cache, scope):
            compiled.append(driver.app_id)
            drivers.setdefault(
                driver.app_id, (weakref.ref(driver), weakref.ref(driver.dag))
            )
            return compile_plan(driver, stage, cache, scope)

        monkeypatch.setattr(SparkSimulator, "_compile_plan", counting)
        sim = run(arrivals=FixedArrivals(interval=1.0))
        metrics = sim.run()
        gc.collect()
        assert set(compiled) == {0, 1, 2}
        assert [m.app_id for m in metrics.apps] == [0, 1, 2]
        for app_id, (driver, dag) in sorted(drivers.items()):
            assert driver() is None, f"app {app_id}'s driver outlived its run"
            assert dag() is None, f"app {app_id}'s DAG outlived its run"


class TestValidation:
    def test_rejects_empty_app_list(self):
        with pytest.raises(ValueError):
            MultiTenantSimulator([], CLUSTER)

    def test_rejects_unknown_scheme_eagerly(self):
        with pytest.raises(ValueError):
            AppSpec(workload="KM", scheme="NOPE")

    def test_rejects_non_positive_share(self):
        with pytest.raises(ValueError):
            AppSpec(workload="KM", share=0.0)

    def test_rejects_unknown_arbitration(self):
        with pytest.raises(ValueError, match="unknown arbitration"):
            MultiTenantSimulator(APPS, CLUSTER, arbitration="fifo")

    @pytest.mark.parametrize(
        "arrivals, message",
        [([2.0, 1.0, 0.5], "non-decreasing"), ([-1.0, 0.0, 1.0], "non-negative")],
    )
    def test_bad_arrival_times_raise_before_any_dag_is_built(
        self, monkeypatch, arrivals, message
    ):
        class Scripted(ArrivalProcess):
            def times(self, n):
                return arrivals[:n]

        built = []
        monkeypatch.setattr(
            tenancy_engine, "build_dag", lambda *args: built.append(args)
        )
        with pytest.raises(ValueError, match=message):
            run(arrivals=Scripted()).run()
        assert built == []

    def test_app_driver_run_is_blocked(self):
        sim = run()
        loop = sim._setup()
        with pytest.raises(RuntimeError):
            loop.apps[0].driver.run()
