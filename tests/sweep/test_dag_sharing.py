"""Sweeps share one compiled DAG per workload; results must not notice.

``run_cells`` compiles each workload DAG once and reuses it (with its
compiled task plans) for every later cell of that workload.  That is
only sound if (a) no simulation mutates the DAG it runs on, and (b) a
cell's result is independent of which cells ran before it on the same
DAG.  These tests pin both properties over a deliberately mixed grid.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.control.plane import RpcConfig
from repro.core.app_profiler import ProfileStore
from repro.dag.dag_builder import build_dag
from repro.experiments.harness import build_workload_dag, cache_mb_for
from repro.simulator.config import CLUSTERS
from repro.simulator.engine import simulate
from repro.simulator.failures import build_churn_plan
from repro.sweep.runner import run_cell, run_cells
from repro.sweep.schemes import SCHEME_SPECS, SchemeSpec
from repro.sweep.spec import CellSpec
from tests.dag.dag_digest import structural_digest

_SCHEMES = {
    "LRU": SchemeSpec("LRU"),
    "LRC": SchemeSpec("LRC"),
    "MemTune": SchemeSpec("MemTune"),
    "Belady": SchemeSpec("Belady"),
    "MRD": SchemeSpec("MRD"),
    "MRD-adhoc": SchemeSpec("MRD", mode="adhoc"),
    "MRD-recurring": SchemeSpec("MRD", mode="recurring"),
}

#: Per-cell variations layered over a static stride cell.
_VARIANTS = (
    {},
    {"placement": "rendezvous"},
    {"churn_rate": 0.4, "rebalance": "migrate"},
    {"control_plane": "rpc", "control_latency": 0.5, "control_loss": 0.2},
    {"cluster_overrides": (("num_nodes", 3),)},
    {"partitions": 4},
)


def _mixed_grid() -> list[CellSpec]:
    cells = []
    for workload in ("SP", "KM"):
        for fraction in (0.3, 0.7):
            for label, spec in _SCHEMES.items():
                base = dict(
                    workload=workload, scheme=label, scheme_spec=spec,
                    cluster="test", cache_fraction=fraction, partitions=8,
                    profile_store=label == "MRD-recurring",
                )
                cells += [CellSpec(**{**base, **variant}) for variant in _VARIANTS]
    return cells


def _fresh_metrics(cells: list[CellSpec], profiles) -> dict[str, dict]:
    """Every cell run alone through ``run_cell``, with no shared DAG."""
    out = {}
    for cell in cells:
        fingerprint = cell.fingerprint()
        path = str(profiles / fingerprint) if cell.profile_store else None
        result = run_cell(cell, path)
        assert result.ok, result.describe_error()
        out[fingerprint] = result.metrics
    return out


@pytest.fixture(scope="module")
def grid_and_fresh(tmp_path_factory):
    cells = _mixed_grid()
    return cells, _fresh_metrics(cells, tmp_path_factory.mktemp("fresh-profiles"))


class TestCellOrderIndependence:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("order", ["forward", "reversed", "shuffled"])
    def test_matches_fresh_run_cell(self, grid_and_fresh, tmp_path, jobs, order):
        cells, fresh = grid_and_fresh
        if order == "reversed":
            cells = cells[::-1]
        elif order == "shuffled":
            cells = random.Random(5).sample(cells, len(cells))
        outcome = run_cells(cells, jobs=jobs, store=tmp_path)
        assert outcome.errors == 0
        assert outcome.computed == len(fresh)
        assert {r.fingerprint: r.metrics for r in outcome.results} == fresh

    def test_grid_exercises_every_axis(self, grid_and_fresh):
        cells, fresh = grid_and_fresh
        assert len(fresh) == len(cells)  # no two cells collapse
        assert {c.workload for c in cells} == {"SP", "KM"}
        assert any(c.profile_store for c in cells)
        assert any(c.churn_rate > 0 for c in cells)
        assert any(c.control_plane == "rpc" and c.control_loss > 0 for c in cells)


class TestSharedDagIsNeverMutated:
    def test_every_registered_scheme(self, tmp_path):
        dag = build_workload_dag("KM", partitions=8)
        before = structural_digest(dag)
        cluster = CLUSTERS["test"]
        config = cluster.with_cache(cache_mb_for(dag, 0.3, cluster))
        legs = (
            {},
            {"placement": "rendezvous"},
            {
                "failure_plan": build_churn_plan(len(dag.active_stages), 0.4, 11),
                "rebalance": "migrate",
            },
            {
                "control_plane": "rpc",
                "control_config": RpcConfig(latency_s=0.5, loss_rate=0.2, seed=3),
            },
        )
        plans_seen: dict = {}
        for name, spec in SCHEME_SPECS.items():
            for i, kwargs in enumerate(legs):
                store = ProfileStore(path=tmp_path / f"{name}-{i}")
                simulate(dag, config, spec.build(profile_store=store), **kwargs)
                # ...and a second run reusing whatever the first recorded.
                simulate(dag, config, spec.build(profile_store=store), **kwargs)
                assert structural_digest(dag) == before, (name, kwargs)
                # Only the engine's plan cache may change, and only by
                # growing: a compiled plan is never replaced.
                for key, plan in plans_seen.items():
                    assert dag.engine_plans[key] is plan
                plans_seen = dict(dag.engine_plans)
        assert plans_seen  # static legs compiled and cached their plans

    def test_sweep_reuses_one_dag_per_workload(self, monkeypatch):
        from repro.dag import dag_builder

        built = []

        def counting_build_dag(app):
            built.append(app.signature)
            return build_dag(app)

        monkeypatch.setattr(dag_builder, "build_dag", counting_build_dag)
        cells = [
            replace(cell, profile_store=False)
            for cell in _mixed_grid()
            if cell.workload == "SP" and cell.partitions == 8
        ]
        dags: dict = {}
        for cell in cells:
            assert run_cell(cell, None, dags).ok
        assert built == ["SP"]
        ((_, params), (dag, _)), = dags.items()
        assert params.partitions == 8
        assert structural_digest(dag) == structural_digest(
            build_workload_dag("SP", partitions=8)
        )
        # A new workload replaces the memo's contents.
        assert run_cell(replace(cells[0], workload="KM"), None, dags).ok
        assert [spec.name for spec, _ in dags] == ["KM"]
        # Without a memo every call compiles its own DAG.
        run_cell(cells[0])
        assert built == ["SP", "KM", "SP"]
