"""The DAG builder's stage skeletons: deep lineages and pinned output.

Stage creation walks each job's shuffle lineage parents-first.  The walk
uses an explicit stack, so a lineage deeper than Python's recursion
limit still builds, and it must yield exactly the stage ids, order and
reference profiles of the recursive definition it replaced.
"""

from __future__ import annotations

import sys

import pytest

from repro.dag.context import SparkApplication, SparkContext
from repro.dag.dag_builder import DagBuilder, _StageSkeleton, build_dag
from repro.workloads.base import WorkloadParams
from repro.workloads.registry import get_workload, workload_names
from repro.workloads.synthetic import SyntheticConfig, generate_application
from tests.conftest import make_diamond_app, make_iterative_app, make_linear_app
from tests.dag.dag_digest import structural_digest

#: ``name -> (digest at default params, digest at partitions=8,
#: iterations=2)`` for every registered workload, pinned from the
#: recursive builder.
PINNED_DIGESTS = {
    "KM": ("6fed9a14cc4be272", "9a8d22b9a47ffb7f"),
    "LinR": ("26e1ef9f07d765bc", "0839e25c0d290ee1"),
    "LogR": ("a6d35f544dbf045d", "c5c4733330e17443"),
    "SVM": ("fa60aa1f0ed496e1", "fafc44379cc0b449"),
    "DT": ("17312ea781b8f10b", "6050a9c7d5d9f5cd"),
    "MF": ("eeadaff2078efe52", "6cf6344999a0f5ae"),
    "PR": ("cb46d85662e75cdf", "251948420bf6adb6"),
    "TC": ("24babd8c5034027b", "60f0c5bbf0b138a8"),
    "SP": ("303ab25d6b92ee86", "f26c96d88b232097"),
    "LP": ("2b60f579800b9244", "64102b434a921b7b"),
    "SVD++": ("f16649bf3cb1e3f1", "dc7cf403d5f8eb33"),
    "CC": ("d27b59a6f2b3d722", "04a05e279761403f"),
    "SCC": ("212d8e634a63f58f", "4d4872f77be282f8"),
    "PO": ("c2533815964214a3", "4a11009231c57968"),
    "Sort": ("0fb5dcc1591d3825", "b8415ac33e0b227e"),
    "WordCount": ("4cf61f50336cb609", "1329658cc944c8dd"),
    "TeraSort": ("ec5571080f1b0239", "ed89c95e21663688"),
    "HiPageRank": ("e3735e155fbf9563", "274b798d6c3ec89d"),
    "Bayes": ("68d8e71e0ddc4ec0", "d0a558aaed4d5090"),
    "HiKMeans": ("78b5b438d7c391f3", "376b53105d7fb955"),
}


class _RecursiveBuilder(DagBuilder):
    """The recursive skeleton walk, kept as the executable reference."""

    def _build_job_skeletons(self, target, job_id):
        created: dict[object, int] = {}

        def create(rdd, shuffle_dep):
            key = shuffle_dep.shuffle_id if shuffle_dep else ("result", rdd.id)
            if key in created:
                return created[key]
            parent_deps = self._frontier_shuffle_deps(rdd, job_id, truncate=False)
            parent_ids = [create(dep.parent, dep) for dep in parent_deps]
            skel = _StageSkeleton(
                id=len(self._skeletons), job_id=job_id, rdd=rdd,
                shuffle_dep=shuffle_dep, parent_ids=parent_ids, skipped=True,
            )
            self._skeletons.append(skel)
            created[key] = skel.id
            return skel.id

        return create(target, None)


def _shuffle_chain(depth: int) -> SparkApplication:
    ctx = SparkContext("deep-lineage")
    rdd = ctx.text_file("in", size_mb=8.0, num_partitions=2)
    for _ in range(depth):
        rdd = rdd.reduce_by_key()
    rdd.count()
    return SparkApplication(ctx)


class TestDeepLineage:
    def test_lineage_deeper_than_recursion_limit_builds(self):
        depth = sys.getrecursionlimit() + 100
        dag = build_dag(_shuffle_chain(depth))
        assert dag.num_stages == depth + 1
        assert dag.num_active_stages == depth + 1
        # A chain: every stage's only parent is the one created before it.
        assert [s.parent_stage_ids for s in dag.stages] == (
            [()] + [(i,) for i in range(depth)]
        )
        assert dag.stages[-1].is_result


class TestMatchesRecursiveWalk:
    @pytest.mark.parametrize(
        "make", [make_iterative_app, make_linear_app, make_diamond_app]
    )
    def test_miniature_apps(self, make):
        assert structural_digest(build_dag(make())) == structural_digest(
            _RecursiveBuilder(make()).build()
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_synthetic_apps(self, seed):
        config = SyntheticConfig(num_jobs=12, partitions=8, reuse_probability=0.5)
        app = generate_application(seed, config)
        assert structural_digest(build_dag(app)) == structural_digest(
            _RecursiveBuilder(generate_application(seed, config)).build()
        )


class TestRegisteredWorkloadsUnchanged:
    def test_every_builtin_workload_is_pinned(self):
        assert set(PINNED_DIGESTS) <= set(workload_names())
        assert len(PINNED_DIGESTS) == 20

    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_stage_order_and_profiles(self, name):
        spec = get_workload(name)
        default, small = PINNED_DIGESTS[name]
        assert structural_digest(build_dag(spec.build(WorkloadParams()))) == default
        params = WorkloadParams(partitions=8, iterations=2)
        assert structural_digest(build_dag(spec.build(params))) == small
