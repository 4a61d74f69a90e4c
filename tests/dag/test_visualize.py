"""Tests for DAG export (networkx + DOT)."""

import hashlib
import json

import networkx as nx
import pytest

from repro.dag.dag_builder import build_dag
from repro.dag.structures import StageView
from repro.dag.visualize import (
    lineage_graph,
    lineage_to_dot,
    stage_graph,
    stages_to_dot,
)
from repro.workloads.base import WorkloadParams
from repro.workloads.registry import get_workload
from repro.workloads.synthetic import generate_application
from tests.dag.test_build_stability import SCHED_APP

#: ``name -> (stages_to_dot, stages_to_dot without skipped, stage_graph)``
#: digests at default params, pinned when the builder still stored a
#: Stage per stage id: these exports read every skipped stage.
PINNED_EXPORTS = {
    "LP": ("acf1618289eec4a1", "e0fdbffdc32c426d", "a73ff43e479194e4"),
    "SCC": ("1e439846ee194e79", "9967417e60c3fb6b", "c549673f4f8bc7b1"),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestNetworkxViews:
    def test_lineage_nodes_and_edges(self, iterative_dag):
        g = lineage_graph(iterative_dag)
        assert g.number_of_nodes() == len(iterative_dag.app.rdds)
        assert nx.is_directed_acyclic_graph(g)
        cached = [n for n, d in g.nodes(data=True) if d["cached"]]
        assert len(cached) == len(iterative_dag.profiles)

    def test_lineage_edge_kinds(self, iterative_dag):
        g = lineage_graph(iterative_dag)
        kinds = {d["narrow"] for _, _, d in g.edges(data=True)}
        assert kinds == {True, False}  # both narrow and shuffle edges

    def test_stage_graph_matches_dag(self, iterative_dag):
        g = stage_graph(iterative_dag)
        assert g.number_of_nodes() == iterative_dag.num_stages
        assert nx.is_directed_acyclic_graph(g)
        skipped = [n for n, d in g.nodes(data=True) if d["skipped"]]
        assert len(skipped) == iterative_dag.num_stages - iterative_dag.num_active_stages


class TestDot:
    def test_lineage_dot_structure(self, iterative_dag):
        dot = lineage_to_dot(iterative_dag)
        assert dot.startswith("digraph lineage {") and dot.endswith("}")
        assert dot.count("->") == sum(len(r.deps) for r in iterative_dag.app.rdds)
        assert "shuffle" in dot
        assert "fillcolor" in dot  # cached highlighting present

    def test_stage_dot_clusters_jobs(self, iterative_dag):
        dot = stages_to_dot(iterative_dag)
        assert dot.count("subgraph cluster_job") == iterative_dag.num_jobs
        assert "(skipped)" in dot

    def test_stage_dot_without_skipped(self, iterative_dag):
        dot = stages_to_dot(iterative_dag, include_skipped=False)
        assert "(skipped)" not in dot
        # Every active stage still present.
        for stage in iterative_dag.active_stages:
            assert f"s{stage.id} " in dot or f"s{stage.id}[" in dot or f"s{stage.id} [" in dot


class TestPinnedExports:
    @pytest.mark.parametrize("name", sorted(PINNED_EXPORTS))
    def test_skipped_stage_exports_unchanged(self, name):
        dag = build_dag(get_workload(name).build(WorkloadParams()))
        assert dag.num_stages - dag.num_active_stages > 600
        g = stage_graph(dag)
        graph = json.dumps(
            [sorted(g.nodes(data=True)), sorted(g.edges())], separators=(",", ":")
        )
        assert (
            _digest(stages_to_dot(dag)),
            _digest(stages_to_dot(dag, include_skipped=False)),
            _digest(graph),
        ) == PINNED_EXPORTS[name]


class TestSkippedStageReads:
    """The sched-bound app has ~10^5 stages, fewer than 1% active, and
    the DAG rebuilds a skipped stage on every read: an export reads
    none of them without skipped stages, each at most once with them."""

    @pytest.fixture(scope="class")
    def sched_dag(self):
        return build_dag(generate_application(7, SCHED_APP))

    @pytest.fixture
    def rebuilt(self, monkeypatch) -> list[int]:
        """Ids of the skipped stages rebuilt while the test runs."""
        seen: list[int] = []
        skipped = StageView._skipped

        def counting(view, j, stage_id):
            seen.append(stage_id)
            return skipped(view, j, stage_id)

        monkeypatch.setattr(StageView, "_skipped", counting)
        return seen

    def test_dot_without_skipped_rebuilds_none(self, sched_dag, rebuilt):
        stages_to_dot(sched_dag, include_skipped=False)
        assert rebuilt == []

    @pytest.mark.parametrize("export", [stages_to_dot, stage_graph])
    def test_full_exports_rebuild_each_skipped_stage_once(self, sched_dag, rebuilt, export):
        export(sched_dag)
        assert len(rebuilt) == len(set(rebuilt))
        assert len(rebuilt) <= sched_dag.num_stages - sched_dag.num_active_stages
