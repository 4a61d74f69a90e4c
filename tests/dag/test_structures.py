"""Direct unit tests for the compiled DAG structures."""

import copy
import dataclasses
import pickle

import pytest

from repro.dag.context import SparkContext
from repro.dag.dag_builder import build_dag
from repro.dag.context import SparkApplication
from repro.dag.structures import RddReferenceProfile
from tests.conftest import make_iterative_app
from tests.dag.dag_digest import structural_digest


@pytest.fixture
def rdd():
    return SparkContext("t").text_file("a", size_mb=8.0, num_partitions=2)


class TestRddReferenceProfile:
    def test_empty_profile(self, rdd):
        prof = RddReferenceProfile(rdd=rdd)
        assert prof.reference_count == 0
        assert prof.stage_gaps() == []
        assert prof.job_gaps() == []
        assert prof.future_read_seqs(0) == []

    def test_gaps_include_creation(self, rdd):
        prof = RddReferenceProfile(
            rdd=rdd, created_seq=2, created_job=1, created_stage_id=5,
            read_seqs=[4, 9], read_jobs=[2, 4], read_stage_ids=[8, 20],
        )
        assert prof.active_stage_gaps() == [2, 5]
        assert prof.stage_gaps() == [3, 12]
        assert prof.job_gaps() == [1, 2]

    def test_duplicate_job_touches_yield_zero_gaps(self, rdd):
        prof = RddReferenceProfile(
            rdd=rdd, created_seq=0, created_job=0, created_stage_id=0,
            read_seqs=[1, 2], read_jobs=[0, 0], read_stage_ids=[1, 2],
        )
        assert prof.job_gaps() == [0, 0]

    def test_future_reads_filter(self, rdd):
        prof = RddReferenceProfile(rdd=rdd, created_seq=0, read_seqs=[2, 5, 9])
        assert prof.future_read_seqs(5) == [5, 9]
        assert prof.future_read_seqs(10) == []


class TestStageProperties:
    @pytest.fixture(scope="class")
    def dag(self):
        return build_dag(make_iterative_app(iterations=3))

    def test_result_vs_shuffle_map(self, dag):
        results = [s for s in dag.stages if s.is_result]
        maps = [s for s in dag.stages if not s.is_result]
        assert len(results) == dag.num_jobs
        assert all(s.shuffle_dep is None for s in results)
        assert all(s.shuffle_dep is not None for s in maps)

    def test_active_flag_matches_seq(self, dag):
        for stage in dag.stages:
            assert stage.is_active == (not stage.skipped) == (stage.seq >= 0)

    def test_volume_properties_consistent(self, dag):
        for stage in dag.active_stages:
            assert stage.shuffle_read_mb == pytest.approx(
                sum(d.parent.size_mb for d in stage.shuffle_reads)
            )
            assert stage.input_read_mb == pytest.approx(
                sum(r.size_mb for r in stage.input_reads)
            )

    def test_job_records_its_stages(self, dag):
        for job in dag.jobs:
            assert set(job.active_stage_ids) <= set(job.stage_ids)
            for sid in job.stage_ids:
                assert dag.stage(sid).job_id == job.id
            assert job.action == job.spec.action


class TestCogroup:
    def test_cogroup_is_wide_on_both_parents(self):
        ctx = SparkContext("t")
        a = ctx.text_file("a", 8.0, 2)
        b = ctx.text_file("b", 8.0, 2)
        c = a.cogroup(b, name="cg")
        assert len(c.deps) == 2
        assert all(d.is_shuffle for d in c.deps)
        c.count()
        dag = build_dag(SparkApplication(ctx))
        assert dag.num_stages == 3  # two map-side stages + result


class TestStageValue:
    @pytest.fixture(scope="class")
    def dag(self):
        return build_dag(make_iterative_app(iterations=3))

    def test_fields_cannot_be_assigned_or_deleted(self, dag):
        stage = dag.stages[-1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            stage.seq = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            stage.extra = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            del stage.id
        assert not hasattr(stage, "__dict__")

    def test_copies_equal_the_original(self, dag):
        for stage in dag.stages:
            assert copy.copy(stage) == stage
            clone = copy.deepcopy(stage)
            assert (clone.id, clone.rdd.id, clone.parent_stage_ids) == (
                stage.id, stage.rdd.id, stage.parent_stage_ids
            )

    def test_dag_survives_pickle(self, dag):
        clone = pickle.loads(pickle.dumps(dag))
        assert [type(s) for s in clone.stages] == [type(s) for s in dag.stages]
        assert structural_digest(clone) == structural_digest(dag)
