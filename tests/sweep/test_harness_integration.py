"""sweep_workload and the fig drivers on the sweep runner."""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.core.policy import MrdScheme
from repro.experiments import fig_control_latency
from repro.experiments.harness import sweep_workload
from repro.simulator.config import CLUSTERS
from repro.simulator.reporting import metrics_to_dict
from repro.sweep.schemes import SchemeSpec
from repro.sweep.store import ResultStore

_SCHEMES = {"LRU": SchemeSpec("LRU"), "MRD": SchemeSpec("MRD")}
_KWARGS = dict(
    schemes=_SCHEMES, cluster=CLUSTERS["test"],
    cache_fractions=(0.3, 0.6), partitions=8,
)


def _runs(result):
    return [
        (r.scheme, r.cache_fraction, r.cache_mb_per_node,
         metrics_to_dict(r.metrics))
        for r in result.runs
    ]


class TestSweepWorkloadRouting:
    def test_parallel_matches_serial_bitwise(self):
        serial = sweep_workload("SP", jobs=1, **_KWARGS)
        parallel = sweep_workload("SP", jobs=2, **_KWARGS)
        assert _runs(parallel) == _runs(serial)

    def test_store_alone_routes_and_caches(self, tmp_path):
        first = sweep_workload("SP", store=tmp_path, **_KWARGS)
        assert len(ResultStore(tmp_path)) == len(first.runs)
        again = sweep_workload("SP", store=tmp_path, **_KWARGS)
        assert _runs(again) == _runs(first)

    def test_live_factory_is_rejected(self, tmp_path):
        # A lambda cannot be described to a worker process.
        schemes = {"custom": lambda: MrdScheme(prefetch=False)}
        with pytest.raises(ValueError, match="SchemeSpec, a scheme name"):
            sweep_workload(
                "SP", schemes=schemes, cluster=CLUSTERS["test"],
                cache_fractions=(0.5,), partitions=8, store=tmp_path,
            )
        assert len(ResultStore(tmp_path)) == 0

    def test_non_preset_cluster_is_rejected(self, tmp_path):
        cluster = replace(CLUSTERS["test"], num_nodes=3)
        with pytest.raises(ValueError, match="not a CLUSTERS preset"):
            sweep_workload(
                "SP", schemes=_SCHEMES, cluster=cluster,
                cache_fractions=(0.5,), partitions=8, store=tmp_path,
            )
        assert len(ResultStore(tmp_path)) == 0

    def test_scheme_labels_survive_the_runner(self, tmp_path):
        schemes = {"renamed": SchemeSpec("MRD")}
        result = sweep_workload(
            "SP", schemes=schemes, cluster=CLUSTERS["test"],
            cache_fractions=(0.5,), partitions=8, jobs=2, store=tmp_path,
        )
        run = result.runs[0]
        assert run.scheme == "renamed"
        assert run.metrics.scheme == "renamed"


class TestControlLatencyDriver:
    def test_runner_path_matches_serial(self, tmp_path):
        kwargs = dict(workloads=("KM",), latencies=(0.0, 2.0))
        serial = fig_control_latency.run(**kwargs)
        parallel = fig_control_latency.run(jobs=2, store=tmp_path, **kwargs)
        assert parallel == serial
        # LRU exchanges no distance state: flat at 1.0 by construction.
        assert all(r.norm_jct == 1.0 for r in serial if r.scheme == "LRU")


class TestPicklability:
    def test_cells_and_results_pickle(self):
        # The pool ships cells out and results back; both must pickle.
        from repro.sweep.runner import run_cell
        from repro.sweep.spec import CellSpec

        cell = CellSpec(workload="SP", cluster="test", cache_fraction=0.4,
                        partitions=8, scheme_spec=SchemeSpec("MRD"))
        assert pickle.loads(pickle.dumps(cell)) == cell
        result = run_cell(cell)
        assert pickle.loads(pickle.dumps(result)) == result
