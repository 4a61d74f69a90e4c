"""Compile a recorded application into jobs, stages and reference profiles.

The algorithm mirrors Spark's ``DAGScheduler``:

1. For each job (action), walk the target RDD's lineage.  Narrow
   dependencies are pipelined into the current stage; every shuffle
   dependency creates (or re-creates, for later jobs) a parent
   shuffle-map stage.  Stage ids are global and increase in creation
   order, parents before children.
2. A shuffle-map stage whose shuffle output was already materialized by
   an earlier job is marked *skipped* — it still occupies a stage id
   (so totals match what the Spark UI reports and Table 3 counts) but
   does not execute.
3. Active stages execute in id order.  For each one we compute the
   *truncated pipeline*: lineage traversal stops at cached RDDs that
   were already computed (those become cache reads) and at shuffle
   boundaries (shuffle reads).  Cached RDDs computed for the first time
   become cache writes.  This yields, per cached RDD, the exact
   sequence of stage indices at which its blocks are touched — the raw
   material for reference counts (LRC) and reference distances (MRD).

Most stages of a long iterative application are skipped re-creations of
earlier jobs' shuffle lineage: their number grows with the square of
the job count, while the active stages grow linearly.  So the per-stage
work is kept small and nothing is stored per skipped stage.  An RDD's
shuffle frontier is computed once and shared by every job; only
submitted stages get their pipelines resolved and a stored
:class:`Stage`; and each job keeps just its first stage id and its
shuffle dependencies in creation order, from which
:class:`~repro.dag.structures.StageView` rebuilds any skipped stage on
access.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field

from repro.dag.context import SparkApplication
from repro.dag.rdd import NarrowDependency, RDD, ShuffleDependency
from repro.dag.structures import Job, RddReferenceProfile, Stage, StageView


@dataclass
class ApplicationDAG:
    """The fully compiled application DAG.

    ``stages`` is indexed by global stage id (from :func:`build_dag`, a
    :class:`StageView` that stores only the active stages);
    ``active_stages`` is the execution sequence (indexed by ``seq``).
    ``profiles`` maps the id of every cached RDD to its
    :class:`RddReferenceProfile`.
    """

    app: SparkApplication
    jobs: list[Job]
    stages: Sequence[Stage]
    active_stages: list[Stage]
    profiles: dict[int, RddReferenceProfile]
    #: Engine-owned cache for static-membership runs: each stage's
    #: compiled task plan under ``(stage seq, num_nodes)`` and the
    #: per-RDD block rows plans are cut from under ``(rdd id,
    #: num_nodes, is_write)``.  Derived data only — excluded from
    #: equality and repr; kept until the DAG is dropped (or the tenancy
    #: engine frees it as the application leaves), so repeated runs of
    #: one DAG (benchmarks, sweeps) skip replanning.
    engine_plans: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def num_jobs(self) -> int:
        return len(self.jobs)

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def num_active_stages(self) -> int:
        return len(self.active_stages)

    @property
    def cached_rdds(self) -> list[RDD]:
        return [p.rdd for p in self.profiles.values()]

    def stage(self, stage_id: int) -> Stage:
        return self.stages[stage_id]

    def job_of_seq(self, seq: int) -> int:
        """Job id executing at active-stage index ``seq``."""
        return self.active_stages[seq].job_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ApplicationDAG({self.app.signature!r} jobs={self.num_jobs} "
            f"stages={self.num_stages} active={self.num_active_stages} "
            f"cached_rdds={len(self.profiles)})"
        )


class DagBuilder:
    """Stateful builder; use :func:`build_dag` for the one-liner.

    Each job is compiled in three passes: create every stage of the
    job's shuffle lineage (:meth:`_create_job_stages`), decide which of
    them are submitted (:meth:`_submitted`), then resolve pipelines and
    reference-profile events for the submitted ones, in id order.  The
    skipped ones get an id and nothing else.
    """

    def __init__(self, app: SparkApplication) -> None:
        self.app = app
        self._active: list[Stage] = []
        self._materialized_shuffles: set[int] = set()
        #: ids of cached RDDs whose blocks an earlier stage computed
        self._computed_cached: set[int] = set()
        #: rdd id -> its untruncated shuffle frontier (job-independent)
        self._frontiers: dict[int, tuple[ShuffleDependency, ...]] = {}
        self._profiles: dict[int, RddReferenceProfile] = {}
        self._unpersist_after: dict[int, int] = {
            ev.rdd.id: ev.after_job_id for ev in app.ctx.unpersist_events
        }
        # Any RDD that was ever cached (including later-unpersisted ones).
        self._ever_cached: set[int] = {r.id for r in app.ctx.cached_rdds}

    # ------------------------------------------------------------------
    def build(self) -> ApplicationDAG:
        jobs: list[Job] = []
        job_deps: list[tuple[ShuffleDependency, ...]] = []
        frontiers = self._frontiers
        first = 0
        for spec in self.app.jobs:
            job_id = spec.job_id
            rdds, shuffle_deps, created = self._create_job_stages(spec.target, first)
            result_id = first + len(rdds) - 1
            submitted = sorted(self._submitted(result_id, first, rdds, created, job_id))
            for sid in submitted:
                rdd = rdds[sid - first]
                parents = tuple([created[d.shuffle_id] for d in frontiers[rdd.id]])
                self._active.append(
                    self._resolve_stage(sid, job_id, rdd, shuffle_deps[sid - first], parents)
                )
            jobs.append(
                Job(
                    id=job_id,
                    spec=spec,
                    stage_ids=range(first, result_id + 1),
                    active_stage_ids=tuple(submitted),
                )
            )
            job_deps.append(tuple(shuffle_deps[:-1]))  # the result stage's is None
            first = result_id + 1
        for rdd_id, after in self._unpersist_after.items():
            if rdd_id in self._profiles:
                self._profiles[rdd_id].unpersist_after_job = after
        return ApplicationDAG(
            app=self.app,
            jobs=jobs,
            stages=StageView(jobs, job_deps, frontiers, self._active),
            active_stages=self._active,
            profiles=self._profiles,
        )

    # ------------------------------------------------------------------
    # stage creation and submission (per job)
    # ------------------------------------------------------------------
    def _create_job_stages(self, target: RDD, base: int) -> tuple[
        list[RDD], list[ShuffleDependency | None], dict[int, int]
    ]:
        """Create this job's stages, parents before children, from id ``base``.

        Mirrors Spark's ``createResultStage`` → ``getOrCreateParentStages``:
        the *entire* shuffle lineage gets a stage, regardless of cache
        state or earlier materialization — skipping is a submission-time
        decision made separately in :meth:`_submitted`.  Returns each
        stage's output RDD and shuffle dependency (``None`` for the
        result stage, which comes last), plus the map from shuffle id to
        the stage id created for it.  A stage's parents are the stages
        created for its RDD's shuffle frontier, which is memoized in
        ``self._frontiers`` for every RDD that gets a stage.
        """
        frontiers = self._frontiers
        created: dict[int, int] = {}
        rdds: list[RDD] = []
        shuffle_deps: list[ShuffleDependency | None] = []

        # Post-order walk with an explicit stack (a shuffle lineage can
        # be deeper than Python's recursion limit).  Each frame is
        # ``(rdd, shuffle_dep, pending parents)``; a frame emits its
        # stage once every parent has an id, so ids come out
        # parents-first in the recursive definition's order.
        stack: list[tuple[RDD, ShuffleDependency | None, Iterator[ShuffleDependency]]] = [
            (target, None, iter(self._untruncated_frontier(target)))
        ]
        while stack:
            rdd, shuffle_dep, pending = stack[-1]
            for dep in pending:
                if dep.shuffle_id not in created:
                    parent = dep.parent
                    deps = frontiers.get(parent.id)  # the memo, inlined: once per stage
                    if deps is None:
                        deps = self._untruncated_frontier(parent)
                    stack.append((parent, dep, iter(deps)))
                    break
            else:
                stack.pop()
                if shuffle_dep is not None:
                    created[shuffle_dep.shuffle_id] = base + len(rdds)
                rdds.append(rdd)
                shuffle_deps.append(shuffle_dep)
        return rdds, shuffle_deps, created

    def _submitted(
        self,
        result_id: int,
        first: int,
        rdds: list[RDD],
        created: dict[int, int],
        job_id: int,
    ) -> set[int]:
        """Ids of the job's stages that actually execute.

        Mirrors ``getMissingParentStages`` at job-submission time: walk
        the lineage, stopping at cached RDDs whose blocks already exist
        and at shuffle dependencies whose map output is materialized.
        Everything reached is submitted (active); the rest shows up as
        skipped stages, exactly like the Spark UI.
        """
        submitted: set[int] = set()
        stack = [result_id]
        while stack:
            sid = stack.pop()
            if sid in submitted:
                continue
            submitted.add(sid)
            for dep in self._truncated_frontier(rdds[sid - first], job_id):
                if dep.shuffle_id not in self._materialized_shuffles:
                    stack.append(created[dep.shuffle_id])
        return submitted

    def _untruncated_frontier(self, rdd: RDD) -> tuple[ShuffleDependency, ...]:
        """Shuffle deps reachable from ``rdd`` without crossing a shuffle.

        This is the stage-*creation* rule, which sees the whole lineage;
        it does not depend on the job, so it is computed once per RDD.
        """
        deps = self._frontiers.get(rdd.id)
        if deps is None:
            deps = self._frontiers[rdd.id] = self._frontier_shuffle_deps(rdd, lambda r: False)
        return deps

    def _truncated_frontier(self, rdd: RDD, job_id: int) -> tuple[ShuffleDependency, ...]:
        """The submission-time frontier: as :meth:`_untruncated_frontier`,
        but the traversal also stops below ``rdd`` at cached RDDs already
        computed (blocks available in memory or on disk)."""
        return self._frontier_shuffle_deps(
            rdd, lambda r: r is not rdd and self._is_cache_hit_assumed(r, job_id)
        )

    @staticmethod
    def _frontier_shuffle_deps(
        rdd: RDD, truncated: Callable[[RDD], bool]
    ) -> tuple[ShuffleDependency, ...]:
        deps: list[ShuffleDependency] = []
        seen: set[int] = set()
        stack = [rdd]
        while stack:
            r = stack.pop()
            if r.id in seen:
                continue
            seen.add(r.id)
            if truncated(r):
                continue  # lineage truncated at an available cached RDD
            for dep in r.deps:
                if isinstance(dep, ShuffleDependency):
                    deps.append(dep)
                else:
                    stack.append(dep.parent)
        # Deterministic order: by shuffle id.
        deps.sort(key=lambda d: d.shuffle_id)
        return tuple(deps)

    # ------------------------------------------------------------------
    # submitted stages: resolve pipelines, reads/writes, costs
    # ------------------------------------------------------------------
    def _resolve_stage(
        self,
        stage_id: int,
        job_id: int,
        rdd: RDD,
        shuffle_dep: ShuffleDependency | None,
        parent_ids: tuple[int, ...],
    ) -> Stage:
        pipeline: list[RDD] = []
        cache_reads: list[RDD] = []
        cache_writes: list[RDD] = []
        shuffle_reads: list[ShuffleDependency] = []
        input_reads: list[RDD] = []
        seen: set[int] = set()
        stack = [rdd]
        while stack:
            r = stack.pop()
            if r.id in seen:
                continue
            seen.add(r.id)
            if self._is_cache_hit_assumed(r, job_id):
                cache_reads.append(r)
                continue
            pipeline.append(r)
            if r.is_input:
                input_reads.append(r)
            if self._is_cached_in_job(r, job_id):
                cache_writes.append(r)
            for dep in r.deps:
                if isinstance(dep, ShuffleDependency):
                    shuffle_reads.append(dep)
                elif isinstance(dep, NarrowDependency):
                    stack.append(dep.parent)

        seq = len(self._active)

        # Record reference-profile events for this stage execution.
        for r in cache_reads:
            prof = self._profile_for(r)
            prof.read_seqs.append(seq)
            prof.read_jobs.append(job_id)
            prof.read_stage_ids.append(stage_id)
        for r in cache_writes:
            prof = self._profile_for(r)
            if prof.created_seq < 0:
                prof.created_seq = seq
                prof.created_job = job_id
                prof.created_stage_id = stage_id
            self._computed_cached.add(r.id)
        if shuffle_dep is not None:
            self._materialized_shuffles.add(shuffle_dep.shuffle_id)

        num_tasks = rdd.num_partitions
        total_cpu = sum(r.compute_cost * r.num_partitions for r in pipeline)
        # Deterministic ordering for reproducibility of downstream output.
        cache_reads.sort(key=lambda r: r.id)
        cache_writes.sort(key=lambda r: r.id)
        shuffle_reads.sort(key=lambda d: d.shuffle_id)
        input_reads.sort(key=lambda r: r.id)
        return Stage(
            id=stage_id,
            job_id=job_id,
            seq=seq,
            rdd=rdd,
            pipeline=tuple(sorted(pipeline, key=lambda r: r.id)),
            shuffle_dep=shuffle_dep,
            parent_stage_ids=parent_ids,
            skipped=False,
            num_tasks=num_tasks,
            cache_reads=tuple(cache_reads),
            cache_writes=tuple(cache_writes),
            shuffle_reads=tuple(shuffle_reads),
            input_reads=tuple(input_reads),
            compute_cost_per_task=total_cpu / num_tasks if num_tasks else 0.0,
        )

    # ------------------------------------------------------------------
    # cache-visibility helpers
    # ------------------------------------------------------------------
    def _is_cached_in_job(self, rdd: RDD, job_id: int) -> bool:
        """Is ``rdd`` persisted while ``job_id`` runs?"""
        if rdd.id not in self._ever_cached:
            return False
        after = self._unpersist_after.get(rdd.id)
        return after is None or job_id <= after

    def _is_cache_hit_assumed(self, rdd: RDD, job_id: int) -> bool:
        """Cached and already computed: lineage truncates here."""
        return self._is_cached_in_job(rdd, job_id) and rdd.id in self._computed_cached

    def _profile_for(self, rdd: RDD) -> RddReferenceProfile:
        prof = self._profiles.get(rdd.id)
        if prof is None:
            prof = RddReferenceProfile(rdd=rdd)
            self._profiles[rdd.id] = prof
        return prof


def build_dag(app: SparkApplication) -> ApplicationDAG:
    """Compile ``app`` into its :class:`ApplicationDAG`."""
    return DagBuilder(app).build()
