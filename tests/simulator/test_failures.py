"""Tests for failure injection and lineage recovery (paper §4.4)."""

from collections import Counter

import pytest

from repro.core.policy import MrdScheme
from repro.policies.scheme import LruScheme
from repro.simulator.engine import SparkSimulator, simulate
from repro.simulator.failures import FailurePlan, NodeFailure
from repro.dag.dag_builder import build_dag
from repro.experiments.harness import build_workload_dag, cache_mb_for
from repro.sweep.schemes import resolve_scheme
from repro.trace.recorder import TraceRecorder
from tests.conftest import make_iterative_app, make_linear_app
from tests.simulator.test_engine import small_config
from tests.simulator.test_scheduler_equivalence import CLUSTER


class TestFailurePlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            NodeFailure(at_seq=-1, node_id=0)
        with pytest.raises(ValueError):
            NodeFailure(at_seq=0, node_id=-1)

    def test_add_chains(self):
        plan = FailurePlan().add(1, 0).add(2, 1, lose_disk=True)
        assert len(plan.failures) == 2
        assert plan.failures_at(2)[0].lose_disk

    def test_out_of_range_node_rejected_at_apply(self):
        dag = build_dag(make_linear_app())
        plan = FailurePlan().add(0, 99)
        with pytest.raises(ValueError, match="node 99"):
            simulate(dag, small_config(), LruScheme(), failure_plan=plan)


class TestCacheLoss:
    def test_run_completes_and_counts_losses(self):
        dag = build_dag(make_linear_app(num_jobs=4))
        plan = FailurePlan().add(at_seq=2, node_id=0)
        metrics = simulate(dag, small_config(), LruScheme(), failure_plan=plan)
        assert metrics.failure_lost_blocks > 0
        assert metrics.num_stages_executed == dag.num_active_stages

    def test_failure_costs_time(self):
        dag = build_dag(make_linear_app(num_jobs=4))
        healthy = simulate(dag, small_config(), LruScheme())
        failed = simulate(
            dag, small_config(), LruScheme(),
            failure_plan=FailurePlan().add(at_seq=2, node_id=0),
        )
        assert failed.jct > healthy.jct
        assert failed.hit_ratio < healthy.hit_ratio

    def test_disk_copies_survive_executor_restart(self):
        """Cache-only loss: reads fall back to spilled copies (no error)."""
        dag = build_dag(make_iterative_app(iterations=3))
        plan = FailurePlan().add(at_seq=1, node_id=1)
        metrics = simulate(dag, small_config(), MrdScheme(), failure_plan=plan)
        assert metrics.jct > 0

    def test_mrd_recovers_after_failure(self):
        """The manager re-issues the table: MRD still beats LRU."""
        dag = build_dag(make_iterative_app(iterations=5))
        cfg = small_config(cache_mb=25.0)
        plan = lambda: FailurePlan().add(at_seq=3, node_id=0)  # noqa: E731
        lru = simulate(dag, cfg, LruScheme(), failure_plan=plan())
        mrd = simulate(dag, cfg, MrdScheme(), failure_plan=plan())
        assert mrd.jct <= lru.jct * 1.05


class TestLineageRecovery:
    def test_lost_disk_triggers_recompute(self):
        """Machine loss drops spilled copies; lineage recovery rebuilds."""
        dag = build_dag(make_linear_app(num_jobs=4))
        plan = FailurePlan().add(at_seq=1, node_id=0, lose_disk=True)
        metrics = simulate(dag, small_config(cache_mb=10.0), LruScheme(), failure_plan=plan)
        # The run completes despite unrecoverable disk copies.
        assert metrics.num_stages_executed == dag.num_active_stages

    def test_recompute_costs_more_than_disk_read(self):
        dag = build_dag(make_linear_app(num_jobs=4))
        cache_starved = small_config(cache_mb=10.0)
        disk_loss = simulate(
            dag, cache_starved, LruScheme(),
            failure_plan=FailurePlan().add(at_seq=1, node_id=0, lose_disk=True),
        )
        cache_loss = simulate(
            dag, cache_starved, LruScheme(),
            failure_plan=FailurePlan().add(at_seq=1, node_id=0),
        )
        assert disk_loss.jct >= cache_loss.jct

    def test_inflight_prefetches_cancelled(self):
        dag = build_dag(make_iterative_app(iterations=4))
        cfg = small_config(cache_mb=15.0)
        plan = FailurePlan().add(at_seq=5, node_id=0).add(at_seq=8, node_id=1)
        metrics = simulate(dag, cfg, MrdScheme(), failure_plan=plan)
        assert metrics.jct > 0  # no stuck in-flight state


class TestPrefetchFates:
    """Every traced prefetch issue ends in a completion, a cancel, or is
    still in flight when the run ends — a failure may not drop one."""

    @pytest.mark.parametrize("workload", ["KM", "PR", "SVD++"])
    def test_failure_cancels_inflight_prefetches(self, workload):
        dag = build_workload_dag(workload, partitions=8)
        cfg = CLUSTER.with_cache(cache_mb_for(dag, 0.4, CLUSTER))
        recorder = TraceRecorder()
        sim = SparkSimulator(
            dag, cfg, resolve_scheme("mrd").build(),
            failure_plan=FailurePlan().add(at_seq=2, node_id=0),
            recorder=recorder,
        )
        sim.run()
        kinds = Counter(ev.kind for ev in recorder.events)
        in_flight = sum(
            len(mgr.inflight_prefetch) for mgr in sim.cluster.master.managers
        )
        assert kinds["prefetch_issue"] > 0
        assert kinds["prefetch_issue"] == (
            kinds["prefetch_complete"] + kinds["prefetch_cancel"] + in_flight
        )
        # The failure's cancels are stamped at its stage boundary.
        (boundary,) = [
            ev.t for ev in recorder.events
            if ev.kind == "stage_start" and ev.seq == 2
        ]
        failed = [
            ev for ev in recorder.events
            if ev.kind == "prefetch_cancel" and ev.reason == "failed"
        ]
        assert all(ev.t == boundary and ev.node_id == 0 for ev in failed)
