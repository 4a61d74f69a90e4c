"""MRD_Table: the reference-distance profile maintained by the manager.

For every tracked RDD the table keeps the ordered list of *upcoming*
references.  As execution advances past a reference it is deleted and
the next one becomes the RDD's comparison value (paper §4.1: "MRD will
keep track of the distance values for all the references, but for
comparison it will only use the lowest one").  An RDD whose list
empties has *infinite* distance — first in line for eviction and the
trigger for the manager's all-out purge.

Hot-path layout (see ``docs/performance.md``): per-RDD references live
in :class:`_RefQueue` — a sorted array with a head pointer, so
consuming a passed reference is O(1) amortized instead of the O(n)
``list.pop(0)`` — and :meth:`MrdTable.advance` is driven by a lazy
min-heap with one entry per stored reference, keyed by the metric
coordinate.  Advancing to a new stage pops only the references that
actually fall behind the new position (amortized O(log n) each) rather
than scanning every tracked RDD's list per stage.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from collections.abc import Iterable

from repro.core.reference_distance import Reference

INFINITE = math.inf

_METRICS = ("stage", "job")


class _RefQueue:
    """Sorted ``(seq, job_id)`` entries with an O(1)-amortized head.

    The live region is ``entries[head:]``; consumed entries are left in
    place and compacted once they dominate the array, so ``popleft`` is
    amortized O(1).  ``seen`` mirrors the live region for O(1) dedup
    (``add_references`` previously paid an O(n) ``in`` scan per merge).
    """

    __slots__ = ("entries", "head", "seen")

    def __init__(self) -> None:
        self.entries: list[tuple[int, int]] = []
        self.head = 0
        self.seen: set[tuple[int, int]] = set()

    def __len__(self) -> int:
        return len(self.entries) - self.head

    def peek(self) -> tuple[int, int] | None:
        return self.entries[self.head] if self.head < len(self.entries) else None

    def add(self, entry: tuple[int, int]) -> bool:
        """Insert ``entry`` in sorted position; False if already stored."""
        if entry in self.seen:
            return False
        self.seen.add(entry)
        insort(self.entries, entry, lo=self.head)
        return True

    def clear(self) -> None:
        self.entries.clear()
        self.seen.clear()
        self.head = 0

    def popleft(self) -> tuple[int, int]:
        entry = self.entries[self.head]
        self.head += 1
        self.seen.discard(entry)
        if self.head > 32 and self.head * 2 >= len(self.entries):
            del self.entries[: self.head]
            self.head = 0
        return entry


class MrdTable:
    """Upcoming-reference lists plus the current execution position."""

    def __init__(self, metric: str = "stage") -> None:
        if metric not in _METRICS:
            raise ValueError(f"metric must be one of {_METRICS}, got {metric!r}")
        self.metric = metric
        #: Index of the metric coordinate inside a (seq, job_id) entry.
        self._coord = 0 if metric == "stage" else 1
        #: rdd_id -> queue of (seq, job_id) still ahead of execution
        self._refs: dict[int, _RefQueue] = {}
        #: Lazy consumption heap: one ``(coordinate, rdd_id)`` entry per
        #: stored reference.  ``advance`` pops entries behind the new
        #: position and drains the owning queue's consumable prefix;
        #: entries whose reference was already consumed (or whose RDD
        #: was forgotten) pop as harmless no-ops.
        self._pending: list[tuple[int, int]] = []
        self.current_seq = 0
        self.current_job = 0

    # ------------------------------------------------------------------
    # updates (paper APIs: updateReferenceDistance / newReferenceDistance)
    # ------------------------------------------------------------------
    def add_references(self, references: Iterable[Reference]) -> None:
        """Merge new references from the AppProfiler (``updateReferenceDistance``)."""
        coord = self._coord
        for ref in references:
            queue = self._refs.get(ref.rdd_id)
            if queue is None:
                queue = self._refs[ref.rdd_id] = _RefQueue()
            entry = (ref.seq, ref.job_id)
            if queue.add(entry):
                heapq.heappush(self._pending, (entry[coord], ref.rdd_id))

    def track(self, rdd_id: int) -> None:
        """Ensure ``rdd_id`` is in the table even with no known references."""
        self._refs.setdefault(rdd_id, _RefQueue())

    def forget(self, rdd_id: int) -> None:
        """Drop an RDD from the table (after a purge order)."""
        self._refs.pop(rdd_id, None)

    def advance(self, seq: int, job_id: int) -> None:
        """Move execution to active stage ``seq`` (``newReferenceDistance``).

        References strictly behind the new position are consumed: the
        paper phrases this as decrementing every distance by the stage
        delta, which is equivalent to keeping absolute positions and
        moving the pointer.

        With the coarse **job** metric, positions are only known at job
        granularity — a reference cannot be recognized as *passed* until
        the JobID increments, so consumed references linger at distance
        0 for the rest of their job.  This is the root of the job
        metric's weakness on many-stages-per-job workloads (Fig. 8):
        blocks that are already dead keep polluting the cache until the
        job boundary.
        """
        if seq < self.current_seq:
            raise ValueError(f"cannot move backwards: {seq} < {self.current_seq}")
        self.current_seq = seq
        self.current_job = job_id
        coord = self._coord
        position = job_id if coord else seq
        pending = self._pending
        refs = self._refs
        while pending and pending[0][0] < position:
            _, rdd_id = heapq.heappop(pending)
            queue = refs.get(rdd_id)
            if queue is None:
                continue
            # Drain the consumable prefix.  Under the job metric a
            # passed-seq reference can hide behind an earlier-seq one
            # whose job has not ended; it is picked up by that blocking
            # entry's own heap pop once the job boundary passes —
            # exactly the reference semantics of the per-stage scan.
            head = queue.peek()
            while head is not None and head[coord] < position:
                queue.popleft()
                head = queue.peek()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, rdd_id: int) -> bool:
        return rdd_id in self._refs

    def tracked_rdd_ids(self) -> list[int]:
        return sorted(self._refs)

    def distance(self, rdd_id: int) -> float:
        """Current comparison value for ``rdd_id`` (lowest upcoming gap).

        Returns ``math.inf`` for RDDs with no upcoming reference,
        including RDDs the table has never heard of.
        """
        queue = self._refs.get(rdd_id)
        head = queue.peek() if queue is not None else None
        if head is None:
            return INFINITE
        if self.metric == "stage":
            return float(head[0] - self.current_seq)
        return float(head[1] - self.current_job)

    def dead_rdds(self) -> list[int]:
        """Tracked RDDs whose reference list has emptied (infinite distance)."""
        return sorted(r for r, queue in self._refs.items() if not len(queue))

    def snapshot(self) -> dict[int, float]:
        """Current distance of every tracked RDD, as a plain mapping.

        This is what the driver broadcasts to workers at a stage
        boundary (and re-issues to a re-registered worker, §4.4): RDDs
        absent from the snapshot are implicitly at infinite distance,
        matching :meth:`distance` for unknown ids.  Each value is the one
        :meth:`distance` returns, computed inline (this runs at every
        stage boundary over every tracked RDD).
        """
        coord = self._coord
        position = self.current_job if coord else self.current_seq
        out: dict[int, float] = {}
        for rdd_id, queue in self._refs.items():
            head = queue.peek()
            out[rdd_id] = INFINITE if head is None else float(head[coord] - position)
        return out

    def candidates_by_distance(self) -> list[tuple[float, int]]:
        """(distance, rdd_id) for all finite-distance RDDs, nearest first."""
        coord = self._coord
        position = self.current_job if coord else self.current_seq
        out = []
        for rdd_id, queue in self._refs.items():
            head = queue.peek()
            if head is not None:
                out.append((float(head[coord] - position), rdd_id))
        out.sort()
        return out

    def size(self) -> int:
        """Number of stored references (the paper's overhead metric)."""
        return sum(len(q) for q in self._refs.values())
