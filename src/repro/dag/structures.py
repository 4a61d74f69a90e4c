"""Compiled DAG structures: jobs, stages and reference profiles.

These are the *output* of :mod:`repro.dag.dag_builder`: an immutable
description of how Spark would split the recorded application into
jobs and stages, which stages would be skipped (shuffle output already
materialized), and — crucially for the cache policies — at which stage
sequence numbers every cached RDD is written and read.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import FrozenInstanceError, dataclass, field
from typing import NamedTuple, overload

from repro.dag.context import JobSpec
from repro.dag.rdd import RDD, ShuffleDependency


class Stage(NamedTuple):
    """One Spark stage.

    Every stage id has a stage, skipped stages included (a long
    iterative application has ~10^5 of them), but a compiled
    application stores only its active ones; :class:`StageView` builds
    a skipped stage each time it is read.  So a stage is an immutable
    named tuple: no per-instance ``__dict__``, and built about four
    times faster than a frozen dataclass, whose ``__init__`` sets each
    field through ``object.__setattr__``.  Assigning or deleting an
    attribute raises :class:`~dataclasses.FrozenInstanceError`, as on a
    frozen dataclass.

    Attributes
    ----------
    id:
        Global stage id, assigned in creation order across all jobs
        (parents before children), mirroring Spark's ``StageID``.
    seq:
        Execution index among *active* (non-skipped) stages, or ``-1``
        for skipped stages.  Reference distances are measured in this
        coordinate: "how many stage executions until the block is
        needed".
    rdd:
        The stage's output RDD (result RDD for result stages, the
        map-side RDD for shuffle-map stages).
    pipeline:
        RDDs computed inside this stage, with traversal truncated at
        cached RDDs that an earlier stage already computed (those are
        cache *reads*, not recomputation) and at shuffle boundaries.
    cache_reads / cache_writes:
        Cached RDDs this stage reads from the block cache / computes
        and inserts into the block cache for the first time.
    shuffle_reads:
        Shuffle dependencies whose map output this stage fetches.
    input_reads:
        Input RDDs (HDFS-like) whose blocks this stage reads from
        distributed storage.
    compute_cost_per_task:
        Pure CPU seconds per task, aggregated over the pipeline.
    """

    id: int
    job_id: int
    seq: int
    rdd: RDD
    pipeline: tuple[RDD, ...]
    shuffle_dep: ShuffleDependency | None
    parent_stage_ids: tuple[int, ...]
    skipped: bool
    num_tasks: int
    cache_reads: tuple[RDD, ...]
    cache_writes: tuple[RDD, ...]
    shuffle_reads: tuple[ShuffleDependency, ...]
    input_reads: tuple[RDD, ...]
    compute_cost_per_task: float

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def is_result(self) -> bool:
        return self.shuffle_dep is None

    @property
    def is_active(self) -> bool:
        return not self.skipped

    @property
    def shuffle_read_mb(self) -> float:
        """Total shuffle bytes fetched by the whole stage, in MB."""
        return sum(dep.parent.size_mb for dep in self.shuffle_reads)

    @property
    def input_read_mb(self) -> float:
        """Total storage-input bytes read by the whole stage, in MB."""
        return sum(r.size_mb for r in self.input_reads)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "Result" if self.is_result else "ShuffleMap"
        flag = " skipped" if self.skipped else f" seq={self.seq}"
        return f"{kind}Stage({self.id} job={self.job_id} rdd={self.rdd.name}{flag})"


@dataclass(frozen=True)
class Job:
    """One Spark job: the stages created for a single action."""

    id: int
    spec: JobSpec
    #: every stage id the job created, skipped ones included
    stage_ids: range
    active_stage_ids: tuple[int, ...]

    @property
    def action(self) -> str:
        return self.spec.action


class StageView(Sequence[Stage]):
    """Every stage of a compiled application, indexed by global stage id.

    Behaves as a read-only list (length, indexing from either end,
    iteration, equality with any sequence of equal stages) but stores
    only the active stages.  A skipped stage is rebuilt when it is read,
    because each of its fields follows from its job and its shuffle
    dependency: the output RDD is the dependency's parent (the job's
    target for the result stage), the parent ids map the RDD's shuffle
    frontier to the stages the same job created for those shuffles, and
    it runs nothing (``seq == -1``, empty pipeline and reads).

    ``shuffle_deps[j]`` lists job ``j``'s shuffle dependencies in the
    order the job created their stages, so job ``j``'s stage ``first +
    k`` is map stage ``k`` and its last stage is the result stage.
    ``frontiers`` maps the id of every stage's output RDD to its
    untruncated shuffle frontier, sorted by shuffle id.
    """

    __slots__ = ("_jobs", "_shuffle_deps", "_frontiers", "_active", "_firsts", "_len", "_memo")

    def __init__(
        self,
        jobs: Sequence[Job],
        shuffle_deps: Sequence[tuple[ShuffleDependency, ...]],
        frontiers: Mapping[int, tuple[ShuffleDependency, ...]],
        active: Sequence[Stage],
    ) -> None:
        self._jobs = jobs
        self._shuffle_deps = shuffle_deps
        self._frontiers = frontiers
        self._active = {stage.id: stage for stage in active}
        self._firsts = [job.stage_ids.start for job in jobs]
        self._len = jobs[-1].stage_ids.stop if jobs else 0
        #: ``(j, _created(j))`` of the last job read: readers such as
        #: ``stages_to_dot`` look up a job's stages and their parents in
        #: turn, and the map costs one entry per stage of the job.
        self._memo: tuple[int, dict[int, int]] = (-1, {})

    def __len__(self) -> int:
        return self._len

    @overload
    def __getitem__(self, index: int) -> Stage: ...

    @overload
    def __getitem__(self, index: slice) -> list[Stage]: ...

    def __getitem__(self, index: int | slice) -> Stage | list[Stage]:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._len))]
        stage_id = index + self._len if index < 0 else index
        if not 0 <= stage_id < self._len:
            raise IndexError(f"stage id {index} out of range ({self._len} stages)")
        stage = self._active.get(stage_id)
        if stage is None:
            stage = self._skipped(bisect_right(self._firsts, stage_id) - 1, stage_id)
        return stage

    def __iter__(self) -> Iterator[Stage]:
        active = self._active
        for j, job in enumerate(self._jobs):
            for stage_id in job.stage_ids:
                stage = active.get(stage_id)
                yield self._skipped(j, stage_id) if stage is None else stage

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StageView({len(self)} stages, {len(self._active)} active)"

    def _created(self, j: int) -> dict[int, int]:
        """Job ``j``'s map from shuffle id to the stage id it created."""
        last, created = self._memo
        if last != j:
            first = self._firsts[j]
            created = {dep.shuffle_id: first + k for k, dep in enumerate(self._shuffle_deps[j])}
            self._memo = (j, created)
        return created

    def _skipped(self, j: int, stage_id: int) -> Stage:
        job = self._jobs[j]
        deps = self._shuffle_deps[j]
        k = stage_id - self._firsts[j]
        dep = deps[k] if k < len(deps) else None
        rdd = job.spec.target if dep is None else dep.parent
        created = self._created(j)
        parents = tuple([created[d.shuffle_id] for d in self._frontiers[rdd.id]])
        return Stage(
            stage_id, job.id, -1, rdd, (), dep, parents, True,
            rdd.num_partitions, (), (), (), (), 0.0,
        )


@dataclass
class RddReferenceProfile:
    """Where a cached RDD is written and read across the active stages.

    ``read_seqs`` are the active-stage sequence numbers at which the
    RDD's blocks are read from the cache (assuming hits); ``read_jobs``
    are the corresponding job ids.  ``created_seq`` is where the blocks
    are first computed and inserted.  ``unpersist_after_job`` is the job
    after which the application explicitly dropped the RDD (or ``None``).
    """

    rdd: RDD
    created_seq: int = -1
    created_job: int = -1
    created_stage_id: int = -1
    read_seqs: list[int] = field(default_factory=list)
    read_jobs: list[int] = field(default_factory=list)
    read_stage_ids: list[int] = field(default_factory=list)
    unpersist_after_job: int | None = None

    @property
    def reference_count(self) -> int:
        """Total number of cache reads over the whole application."""
        return len(self.read_seqs)

    def future_read_seqs(self, current_seq: int) -> list[int]:
        """Reads at or after ``current_seq`` (the policies' lookahead)."""
        return [s for s in self.read_seqs if s >= current_seq]

    def stage_gaps(self) -> list[int]:
        """Gaps between consecutive touches, in raw ``StageID`` units.

        The paper measures stage distance by subtracting Spark's global
        sequential stage IDs, which count *skipped* stages too — that is
        why highly iterative workloads (LP, SCC) report large stage
        distances.  The touch sequence includes the creation point.
        """
        touches = sorted(
            t for t in [self.created_stage_id, *self.read_stage_ids] if t >= 0
        )
        return [b - a for a, b in zip(touches, touches[1:])]

    def active_stage_gaps(self) -> list[int]:
        """Gaps between consecutive touches in active-execution order.

        This is the coordinate the MRD policy itself operates in (how
        many stage *executions* until the block is needed).
        """
        touches = sorted(
            t for t in [self.created_seq, *self.read_seqs] if t >= 0
        )
        return [b - a for a, b in zip(touches, touches[1:])]

    def job_gaps(self) -> list[int]:
        """Job-id gaps between consecutive touches.

        Touches within the same job contribute gaps of zero (two
        references inside one job are "job distance 0" in the paper's
        coarse metric — the root of the metric's weakness shown in
        Fig. 8).
        """
        touches = sorted(
            t for t in [self.created_job, *self.read_jobs] if t >= 0
        )
        return [b - a for a, b in zip(touches, touches[1:])]
