"""The DAG builder against its executable reference, and pinned output.

Stage creation walks each job's shuffle lineage parents-first.  The
builder's walk uses an explicit stack, so a lineage deeper than Python's
recursion limit still builds, and it memoizes each RDD's shuffle
frontier across jobs.  It must yield exactly the stage ids, order and
reference profiles of :class:`_RecursiveBuilder`, the straightforward
definition it replaced.
"""

from __future__ import annotations

import sys
import tracemalloc
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag.context import SparkApplication, SparkContext
from repro.dag.dag_builder import ApplicationDAG, build_dag
from repro.dag.rdd import NarrowDependency, RDD, ShuffleDependency
from repro.dag.structures import Job, RddReferenceProfile, Stage
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


#: The sched-bound benchmark application (the engine benchmark's
#: ``sched`` profile at 640 partitions, 432 jobs): ``seed -> digest``,
#: pinned from the builder before it memoized shuffle frontiers.  About
#: 10^5 stages, fewer than 1% of them active.
SCHED_APP = SyntheticConfig(
    num_jobs=432, cache_probability=0.05, reuse_probability=0.3, partitions=640
)
SCHED_DIGESTS = {7: "8275bce03c11a40d", 8: "e8365c64f209cb9c"}


class _RecursiveBuilder:
    """The DAG compile as first written: the executable reference.

    Standalone on purpose (it shares only the output structures with
    :mod:`repro.dag.dag_builder`): each job's stages are created by a
    recursive walk that recomputes every stage's shuffle frontier, the
    submitted stages are found by re-walking the job's stages, and every
    stage is resolved in id order.
    """

    def __init__(self, app: SparkApplication) -> None:
        self.app = app
        self.stages: list[Stage] = []
        self.skeletons: list[dict] = []
        self.materialized: set[int] = set()
        self.computed_cached: set[int] = set()
        self.seq = 0
        self.profiles: dict[int, RddReferenceProfile] = {}
        self.unpersist_after = {ev.rdd.id: ev.after_job_id for ev in app.ctx.unpersist_events}
        self.ever_cached = {r.id for r in app.ctx.cached_rdds}

    def build(self) -> ApplicationDAG:
        jobs = []
        for spec in self.app.jobs:
            first = len(self.skeletons)
            result_id = self.create_job_skeletons(spec.target, spec.job_id)
            new = self.skeletons[first:]
            self.mark_active(result_id, spec.job_id)
            self.stages.extend(self.resolve(skel) for skel in new)
            jobs.append(Job(
                id=spec.job_id, spec=spec,
                stage_ids=range(first, len(self.skeletons)),
                active_stage_ids=tuple(s["id"] for s in new if not s["skipped"]),
            ))
        for rdd_id, after in self.unpersist_after.items():
            if rdd_id in self.profiles:
                self.profiles[rdd_id].unpersist_after_job = after
        active = sorted((s for s in self.stages if not s.skipped), key=lambda s: s.seq)
        return ApplicationDAG(
            app=self.app, jobs=jobs, stages=self.stages, active_stages=active,
            profiles=self.profiles,
        )

    def create_job_skeletons(self, target: RDD, job_id: int) -> int:
        created: dict[object, int] = {}

        def create(rdd, shuffle_dep):
            key = shuffle_dep.shuffle_id if shuffle_dep else ("result", rdd.id)
            if key in created:
                return created[key]
            parent_deps = self.frontier(rdd, job_id, truncate=False)
            parent_ids = [create(dep.parent, dep) for dep in parent_deps]
            skel = {
                "id": len(self.skeletons), "job_id": job_id, "rdd": rdd,
                "shuffle_dep": shuffle_dep, "parent_ids": parent_ids, "skipped": True,
            }
            self.skeletons.append(skel)
            created[key] = skel["id"]
            return skel["id"]

        return create(target, None)

    def mark_active(self, result_id: int, job_id: int) -> None:
        by_shuffle_id = {}
        walk, seen = [result_id], set()
        while walk:
            sid = walk.pop()
            if sid not in seen:
                seen.add(sid)
                skel = self.skeletons[sid]
                if skel["shuffle_dep"] is not None:
                    by_shuffle_id[skel["shuffle_dep"].shuffle_id] = skel
                walk.extend(skel["parent_ids"])
        stack, active = [result_id], set()
        while stack:
            sid = stack.pop()
            if sid in active:
                continue
            active.add(sid)
            skel = self.skeletons[sid]
            skel["skipped"] = False
            for dep in self.frontier(skel["rdd"], job_id, truncate=True):
                if dep.shuffle_id not in self.materialized and dep.shuffle_id in by_shuffle_id:
                    stack.append(by_shuffle_id[dep.shuffle_id]["id"])

    def frontier(self, rdd: RDD, job_id: int, truncate: bool) -> list[ShuffleDependency]:
        deps, seen, stack = [], set(), [rdd]
        while stack:
            r = stack.pop()
            if r.id in seen:
                continue
            seen.add(r.id)
            if truncate and r.id != rdd.id and self.cache_hit(r, job_id):
                continue
            for dep in r.deps:
                if isinstance(dep, ShuffleDependency):
                    deps.append(dep)
                else:
                    stack.append(dep.parent)
        return sorted(deps, key=lambda d: d.shuffle_id)

    def resolve(self, skel: dict) -> Stage:
        rdd, job_id = skel["rdd"], skel["job_id"]
        common = dict(
            id=skel["id"], job_id=job_id, rdd=rdd, shuffle_dep=skel["shuffle_dep"],
            parent_stage_ids=tuple(skel["parent_ids"]), num_tasks=rdd.num_partitions,
        )
        if skel["skipped"]:
            return Stage(
                seq=-1, pipeline=(), skipped=True, cache_reads=(), cache_writes=(),
                shuffle_reads=(), input_reads=(), compute_cost_per_task=0.0, **common,
            )
        pipeline, reads, writes, shuffles, inputs = [], [], [], [], []
        seen, stack = set(), [rdd]
        while stack:
            r = stack.pop()
            if r.id in seen:
                continue
            seen.add(r.id)
            if self.cache_hit(r, job_id):
                reads.append(r)
                continue
            pipeline.append(r)
            if r.is_input:
                inputs.append(r)
            if self.cached_in_job(r, job_id):
                writes.append(r)
            for dep in r.deps:
                if isinstance(dep, ShuffleDependency):
                    shuffles.append(dep)
                elif isinstance(dep, NarrowDependency):
                    stack.append(dep.parent)
        seq, self.seq = self.seq, self.seq + 1
        for r in reads:
            prof = self.profiles.setdefault(r.id, RddReferenceProfile(rdd=r))
            prof.read_seqs.append(seq)
            prof.read_jobs.append(job_id)
            prof.read_stage_ids.append(skel["id"])
        for r in writes:
            prof = self.profiles.setdefault(r.id, RddReferenceProfile(rdd=r))
            if prof.created_seq < 0:
                prof.created_seq, prof.created_job = seq, job_id
                prof.created_stage_id = skel["id"]
            self.computed_cached.add(r.id)
        if skel["shuffle_dep"] is not None:
            self.materialized.add(skel["shuffle_dep"].shuffle_id)
        by_id = attrgetter("id")
        cpu = sum(r.compute_cost * r.num_partitions for r in pipeline)
        return Stage(
            seq=seq, pipeline=tuple(sorted(pipeline, key=by_id)), skipped=False,
            cache_reads=tuple(sorted(reads, key=by_id)),
            cache_writes=tuple(sorted(writes, key=by_id)),
            shuffle_reads=tuple(sorted(shuffles, key=lambda d: d.shuffle_id)),
            input_reads=tuple(sorted(inputs, key=by_id)),
            compute_cost_per_task=cpu / rdd.num_partitions, **common,
        )

    def cached_in_job(self, rdd: RDD, job_id: int) -> bool:
        if rdd.id not in self.ever_cached:
            return False
        after = self.unpersist_after.get(rdd.id)
        return after is None or job_id <= after

    def cache_hit(self, rdd: RDD, job_id: int) -> bool:
        return self.cached_in_job(rdd, job_id) and rdd.id in self.computed_cached


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

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        num_jobs=st.integers(1, 24),
        cache_probability=st.floats(0.0, 1.0),
        reuse_probability=st.floats(0.0, 1.0),
        unpersist_probability=st.floats(0.0, 1.0),
        max_hops=st.integers(1, 5),
    )
    def test_random_synthetic_apps(
        self, seed, num_jobs, cache_probability, reuse_probability,
        unpersist_probability, max_hops,
    ):
        config = SyntheticConfig(
            num_jobs=num_jobs, stages_per_job=(1, max_hops), partitions=4,
            cache_probability=cache_probability, reuse_probability=reuse_probability,
            unpersist_probability=unpersist_probability,
        )
        assert structural_digest(build_dag(generate_application(seed, config))) == (
            structural_digest(_RecursiveBuilder(generate_application(seed, config)).build())
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


class TestSchedAppUnchanged:
    @pytest.mark.parametrize("seed", sorted(SCHED_DIGESTS))
    def test_stage_order_and_profiles(self, seed):
        dag = build_dag(generate_application(seed, SCHED_APP))
        assert structural_digest(dag) == SCHED_DIGESTS[seed]


class TestSchedAppSize:
    def test_compiled_dag_stores_only_active_stages(self):
        # About 10^5 stages, 961 of them active.  Storing a Stage per
        # stage id took 31.6 MB here; the active stages take about 1.5 MB.
        app = generate_application(7, SCHED_APP)
        tracemalloc.start()
        try:
            dag = build_dag(app)
            traced, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dag.num_stages == 102_625
        assert traced < 4 * 2**20


class TestStageView:
    """``ApplicationDAG.stages`` stores active stages only but reads as a list."""

    @pytest.fixture(scope="class")
    def app(self):
        return generate_application(3, SyntheticConfig(num_jobs=16, partitions=8))

    @pytest.fixture(scope="class")
    def dag(self, app):
        return build_dag(app)

    def test_has_skipped_stages(self, dag):
        assert dag.num_active_stages < dag.num_stages

    def test_two_builds_of_one_app_compare_equal(self, app, dag):
        other = build_dag(app)
        assert other.stages is not dag.stages
        assert other.stages == dag.stages
        assert other == dag

    def test_different_app_compares_unequal(self, dag):
        other = build_dag(generate_application(4, SyntheticConfig(num_jobs=16, partitions=8)))
        assert other.stages != dag.stages
        assert dag.stages != dag.stages[:-1]

    def test_equals_the_recursive_builders_list(self, app, dag):
        reference = _RecursiveBuilder(app).build()
        assert isinstance(reference.stages, list)
        assert dag.stages == reference.stages
        assert reference.stages == dag.stages
        assert dag == reference

    def test_indexes_like_a_list(self, dag):
        stages = list(dag.stages)
        n = len(stages)
        assert len(dag.stages) == n == dag.num_stages
        assert dag.stages[-1] == stages[-1] and dag.stages[-1].is_result
        assert dag.stages[-n] == stages[0]
        assert [dag.stages[i] for i in range(n)] == stages
        assert dag.stages[3:-2] == stages[3:-2]
        assert list(reversed(dag.stages)) == stages[::-1]
        for index in (n, -n - 1):
            with pytest.raises(IndexError):
                dag.stages[index]
            with pytest.raises(IndexError):
                stages[index]

    def test_skipped_stages_are_rebuilt_equal(self, dag):
        skipped = [s for s in dag.stages if s.skipped]
        assert skipped
        for stage in skipped:
            assert dag.stage(stage.id) == stage
            assert stage.seq == -1 and stage.pipeline == ()
            assert stage.num_tasks == stage.rdd.num_partitions

    def test_job_stage_ids_are_ranges(self, dag):
        first = 0
        for job in dag.jobs:
            assert job.stage_ids == range(first, first + len(job.stage_ids))
            first = job.stage_ids.stop
        assert first == dag.num_stages
