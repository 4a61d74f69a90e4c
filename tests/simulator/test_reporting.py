"""Tests for metrics export (JSON/CSV)."""

import csv
import json

import pytest

from repro.dag.dag_builder import build_dag
from repro.policies.scheme import LruScheme
from repro.simulator.engine import simulate
from repro.simulator.reporting import (
    metrics_from_dict,
    metrics_to_dict,
    save_comparison_csv,
)
from repro.core.policy import MrdScheme
from tests.conftest import make_linear_app
from tests.simulator.test_engine import small_config


@pytest.fixture(scope="module")
def metrics():
    dag = build_dag(make_linear_app(num_jobs=3))
    return simulate(dag, small_config(), LruScheme())


class TestDict:
    def test_roundtrips_through_json(self, metrics):
        d = metrics_to_dict(metrics)
        assert json.loads(json.dumps(d)) == d

    def test_fields(self, metrics):
        d = metrics_to_dict(metrics)
        assert d["scheme"] == "LRU"
        assert d["workload"] == "mini-gd"
        assert d["accesses"] == d["hits"] + d["misses"]
        assert len(d["stages"]) == metrics.num_stages_executed

    def test_lossless_object_round_trip(self, metrics):
        # The sweep result store relies on to_dict/from_dict being a
        # perfect inverse pair, including after a JSON hop.
        payload = json.loads(json.dumps(metrics_to_dict(metrics)))
        rebuilt = metrics_from_dict(payload)
        assert metrics_to_dict(rebuilt) == metrics_to_dict(metrics)
        assert rebuilt.hit_ratio == metrics.hit_ratio
        assert rebuilt.mean_node_hit_ratio == metrics.mean_node_hit_ratio
        assert rebuilt.stage_records[-1].duration == \
            metrics.stage_records[-1].duration

    def test_round_trip_preserves_control_stats(self):
        from repro.control.plane import RpcConfig

        dag = build_dag(make_linear_app(num_jobs=3))
        m = simulate(
            dag, small_config(), MrdScheme(),
            control_plane="rpc", control_config=RpcConfig(latency_s=1.0),
        )
        rebuilt = metrics_from_dict(metrics_to_dict(m))
        assert rebuilt.control_plane == "rpc"
        assert rebuilt.control.sent == m.control.sent
        assert rebuilt.control.mean_order_delay == m.control.mean_order_delay

    def test_round_trip_preserves_tenancy_fields(self, metrics):
        # Standalone runs: app_id None, arrival_time 0.0 — and the pair
        # must survive the dict hop unchanged.
        assert metrics.app_id is None
        payload = json.loads(json.dumps(metrics_to_dict(metrics)))
        rebuilt = metrics_from_dict(payload)
        assert rebuilt.app_id is None
        assert rebuilt.arrival_time == 0.0


class TestMultiTenantDict:
    """mt_metrics_to_dict/from_dict are a lossless inverse pair."""

    @pytest.fixture(scope="class")
    def mt_metrics(self):
        from repro.simulator.config import CLUSTERS
        from repro.tenancy import AppSpec, MultiTenantSimulator, PoissonArrivals

        apps = [
            AppSpec(workload="KM", scheme="MRD", partitions=8, share=2.0),
            AppSpec(workload="PR", scheme="LRU", partitions=8),
        ]
        return MultiTenantSimulator(
            apps,
            CLUSTERS["main"].with_cache(60.0),
            arrivals=PoissonArrivals(rate=0.1, seed=3),
            arbitration="global-mrd",
        ).run()

    def test_json_round_trip_is_lossless(self, mt_metrics):
        from repro.tenancy import mt_metrics_from_dict, mt_metrics_to_dict

        d = mt_metrics_to_dict(mt_metrics)
        assert json.loads(json.dumps(d)) == d
        rebuilt = mt_metrics_from_dict(json.loads(json.dumps(d)))
        assert mt_metrics_to_dict(rebuilt) == d
        assert rebuilt == mt_metrics

    def test_per_app_fields_survive(self, mt_metrics):
        from repro.tenancy import mt_metrics_from_dict, mt_metrics_to_dict

        rebuilt = mt_metrics_from_dict(mt_metrics_to_dict(mt_metrics))
        assert [m.app_id for m in rebuilt.apps] == [0, 1]
        assert [m.arrival_time for m in rebuilt.apps] == \
            [m.arrival_time for m in mt_metrics.apps]
        assert rebuilt.arbitration == "global-mrd"
        assert rebuilt.arrival_process == "poisson"
        assert rebuilt.makespan == mt_metrics.makespan

    def test_aggregates_recomputed_not_stored(self, mt_metrics):
        from repro.tenancy import mt_metrics_from_dict, mt_metrics_to_dict

        d = mt_metrics_to_dict(mt_metrics)
        assert "jct_p50" not in d and "aggregate_hit_ratio" not in d
        rebuilt = mt_metrics_from_dict(d)
        assert rebuilt.jct_p50 == mt_metrics.jct_p50
        assert rebuilt.jct_p99 == mt_metrics.jct_p99
        assert rebuilt.aggregate_hit_ratio == mt_metrics.aggregate_hit_ratio
        assert rebuilt.total_evictions == mt_metrics.total_evictions


class TestFiles:
    def test_comparison_csv(self, tmp_path):
        dag = build_dag(make_linear_app(num_jobs=3))
        cfg = small_config(cache_mb=20.0)
        runs = [simulate(dag, cfg, LruScheme()), simulate(dag, cfg, MrdScheme())]
        path = save_comparison_csv(runs, tmp_path / "cmp.csv")
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["scheme"] for r in rows] == ["LRU", "MRD"]
        assert all(float(r["jct"]) > 0 for r in rows)
