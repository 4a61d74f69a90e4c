"""Compiled stage plans equal the per-task spec.

The engine cuts each stage's task plan from per-RDD block rows
(``SparkSimulator._compile_plan``).  The spec is the per-task
comprehension those rows replace: task ``p`` of a T-task stage reads
(writes) partitions ``p, p+T, p+2T, …`` of every cached RDD, in
``cache_reads`` (``cache_writes``) order, each resolved through the
placement of the moment the plan is compiled.
"""

from __future__ import annotations

import pytest

from repro.cluster.block import BlockId, block_of
from repro.dag.context import SparkApplication, SparkContext
from repro.dag.dag_builder import build_dag
from repro.experiments.harness import build_workload_dag, cache_mb_for
from repro.simulator.engine import SparkSimulator
from repro.sweep.schemes import resolve_scheme
from repro.workloads.synthetic import SyntheticConfig, generate_application
from tests.simulator.test_elastic import _churny_plan
from tests.simulator.test_scheduler_equivalence import CLUSTER


def spec_plan(stage, place) -> tuple[list, list, bool]:
    num_tasks = stage.num_tasks
    reads = [
        tuple(
            (BlockId(rdd.id, q), place(q), rdd.partition_size_mb)
            for rdd in stage.cache_reads
            for q in range(p, rdd.num_partitions, num_tasks)
        )
        for p in range(num_tasks)
    ]
    writes = [
        tuple(
            (block_of(rdd, q), place(q))
            for rdd in stage.cache_writes
            for q in range(p, rdd.num_partitions, num_tasks)
        )
        for p in range(num_tasks)
    ]
    return (reads, writes, bool(stage.cache_writes))


class SpecCheckedSimulator(SparkSimulator):
    """Checks every plan against the spec as it is compiled, under the
    placement of that moment, and logs ``(seq, epoch)`` per compile."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.compiled: list[tuple[int, int]] = []

    def _compile_plan(self, stage, cache, scope):
        plan = super()._compile_plan(stage, cache, scope)
        master = self.cluster.master
        assert plan == spec_plan(stage, master.placement.place), stage.seq
        self.compiled.append((stage.seq, master.epoch))
        return plan


def _union_dag():
    """A 12-task stage reading two cached RDDs of 8 and 4 partitions."""
    ctx = SparkContext("union")
    a = ctx.text_file("in", size_mb=80.0, num_partitions=8).map(name="A").cache()
    a.count()
    b = a.reduce_by_key(num_partitions=4, name="B").cache()
    b.count()
    b.union(a, name="U").count()
    return build_dag(SparkApplication(ctx))


DAGS = {
    **{name: (lambda name=name: build_workload_dag(name, partitions=8))
       for name in ("KM", "PR", "CC", "SVD++", "SP")},
    "synthetic": lambda: build_dag(
        generate_application(1, SyntheticConfig(num_jobs=6, partitions=8))
    ),
    "union": _union_dag,
}


def _run(dag, **kwargs) -> SpecCheckedSimulator:
    cfg = CLUSTER.with_cache(cache_mb_for(dag, 0.4, CLUSTER))
    sim = SpecCheckedSimulator(dag, cfg, resolve_scheme("mrd").build(), **kwargs)
    sim.run()
    return sim


@pytest.mark.parametrize("placement", ["stride", "rendezvous"])
@pytest.mark.parametrize("name", sorted(DAGS))
def test_every_active_stage_matches_spec(name, placement):
    dag = DAGS[name]()
    sim = _run(dag, placement=placement)
    assert sim.compiled  # the run itself compiled (and checked) plans
    place = sim.cluster.master.placement.place
    for stage in dag.active_stages:
        assert sim._stage_plan(stage) == spec_plan(stage, place), stage.seq
        # Strided tails: fewer tasks than partitions, and more.
        widest = max(
            (r.num_partitions for r in stage.cache_reads + stage.cache_writes),
            default=1,
        )
        for num_tasks in (1, max(widest // 2, 1), 2 * widest + 1):
            variant = stage._replace(num_tasks=num_tasks)
            assert sim._compile_plan(variant, {}, 0) == spec_plan(variant, place)


def test_cases_are_covered():
    stages = [s for build in DAGS.values() for s in build().active_stages]
    assert any(len(s.cache_reads) > 1 for s in stages)
    assert any(len(s.cache_writes) > 1 for s in stages)
    assert any(
        s.num_tasks > r.num_partitions for s in stages for r in s.cache_reads
    )


@pytest.mark.parametrize("placement", ["stride", "rendezvous"])
def test_churned_run_compiles_epoch_keyed_plans(placement):
    dag = DAGS["KM"]()
    sim = _run(dag, placement=placement, failure_plan=_churny_plan())
    epochs = {epoch for _, epoch in sim.compiled}
    assert max(epochs) > 0
    # Plans compiled after the first membership change live in the run's
    # epoch cache, never on the shared DAG.
    assert {
        key for key in sim._plan_cache if len(key) == 2
    } >= {(seq, epoch) for seq, epoch in sim.compiled if epoch > 0}
    if placement == "rendezvous":
        assert not dag.engine_plans


def test_stages_reading_one_rdd_share_entries():
    dag = DAGS["KM"]()
    sim = _run(dag)
    readers: dict[int, list] = {}
    for stage in dag.active_stages:
        for rdd in stage.cache_reads:
            readers.setdefault(rdd.id, []).append(stage)
    rdd_id, stages = next(
        (rdd_id, stages) for rdd_id, stages in readers.items() if len(stages) > 1
    )

    def entries(stage) -> dict:
        reads, _, _ = sim._stage_plan(stage)
        return {e[0]: e for task in reads for e in task if e[0].rdd_id == rdd_id}

    first, second = entries(stages[0]), entries(stages[1])
    assert first and first.keys() == second.keys()
    assert all(first[bid] is second[bid] for bid in first)
