"""Bounded per-node block cache with pluggable eviction policy.

Mirrors Spark's ``MemoryStore``: a capacity-bounded map from
:class:`BlockId` to :class:`Block`.  Inserting past capacity asks the
eviction policy for victims; blocks pinned by running tasks are never
evicted; a block larger than the whole store (or whose space cannot be
freed) is refused rather than partially cached.

Columnar hot path
-----------------
Alongside the authoritative ``dict[BlockId, Block]`` the store can
maintain *parallel numpy columns* — one row per resident block holding
the block id (rdd, partition), its size and a policy-owned sort key
(plus an auxiliary key for policies with a secondary order).  Rows are
kept dense via swap-remove, so victim selection can run as array
kernels over ``columns()`` instead of per-object walks (see
:mod:`repro.policies.vectorized` for the selection and its tie-break
contract).

The index is built *lazily*: per-row maintenance costs a handful of
numpy scalar writes on every insert and eviction, which is pure
overhead for stores that never grow past the policies' batch-engagement
thresholds.  A columnar store therefore starts with no arrays at all;
the first batch selection calls :meth:`MemoryStore.ensure_columns`,
which materializes the rows from the block dict, and incremental
maintenance takes over from there.  numpy itself loads with the index:
a run whose stores never engage a batch selection never imports it.

The columns are an acceleration index only: every decision they feed is
defined by — and tested byte-identical against — the object-based
reference path, and ``store_mode(columnar=False)`` turns them off
entirely to re-run anything on the reference spec.
"""

from __future__ import annotations

from collections.abc import Iterator, Set as AbstractSet
from contextlib import contextmanager
from typing import TYPE_CHECKING, NamedTuple

from repro.cluster.block import Block, BlockId

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    import numpy as np

    from repro.policies.base import EvictionPolicy

#: Initial row capacity of the columnar arrays; doubled on demand.
_INITIAL_CAPACITY = 64


class StoreColumns(NamedTuple):
    """Dense per-row views over the store's columnar arrays.

    Views are only valid until the next insert (arrays may be
    reallocated on growth) — take them fresh per selection.
    """

    rdd: np.ndarray  #: int64 — ``BlockId.rdd_id`` per row
    part: np.ndarray  #: int64 — ``BlockId.partition`` per row
    size: np.ndarray  #: float64 — ``Block.size_mb`` per row
    key: np.ndarray  #: float64 — policy-owned primary sort key
    aux: np.ndarray  #: float64 — policy-owned secondary sort key


class PutResult(NamedTuple):
    """Outcome of a :meth:`MemoryStore.put` call.

    Immutable, so the outcomes that evict nothing are shared instances
    (:data:`_STORED`, :data:`_REFUSED`): most puts allocate no result.
    """

    stored: bool
    evicted: tuple[Block, ...] = ()


_STORED = PutResult(True)
_REFUSED = PutResult(False)


class MemoryStore:
    """Capacity-bounded in-memory block store for one worker node."""

    #: Process-wide default for new stores; flip via :func:`store_mode`.
    columnar_default: bool = True

    def __init__(
        self,
        capacity_mb: float,
        policy: EvictionPolicy,
        columnar: bool | None = None,
    ) -> None:
        if capacity_mb < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity_mb = float(capacity_mb)
        self.policy = policy
        self._blocks: dict[BlockId, Block] = {}
        self._used_mb = 0.0
        self._pinned: dict[BlockId, int] = {}
        # Residency count per rdd id: lets purge/unpersist paths skip
        # whole-store scans for rdds with no resident blocks.
        self._rdd_count: dict[int, int] = {}
        self.columnar = (
            MemoryStore.columnar_default if columnar is None else columnar
        )
        # Arrays are allocated lazily by ensure_columns(); until a batch
        # selection engages, a columnar store does no row bookkeeping.
        self._cols_active = False
        if self.columnar:
            self._rows: dict[BlockId, int] = {}
            self._row_ids: list[BlockId] = []
        policy.bind_store(self)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def used_mb(self) -> float:
        return self._used_mb

    @property
    def free_mb(self) -> float:
        return self.capacity_mb - self._used_mb

    @property
    def free_fraction(self) -> float:
        return self.free_mb / self.capacity_mb if self.capacity_mb else 0.0

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, block_id: BlockId) -> bool:
        return block_id in self._blocks

    def block(self, block_id: BlockId) -> Block:
        return self._blocks[block_id]

    def block_ids(self) -> Iterator[BlockId]:
        return iter(self._blocks)

    def blocks(self) -> Iterator[Block]:
        return iter(self._blocks.values())

    def is_pinned(self, block_id: BlockId) -> bool:
        return self._pinned.get(block_id, 0) > 0

    def pinned_ids(self) -> AbstractSet[BlockId]:
        """Live view of the pinned blocks (a victim walk tests membership)."""
        return self._pinned.keys()

    def holds_rdd(self, rdd_id: int) -> bool:
        """Whether any block of ``rdd_id`` is memory-resident."""
        return rdd_id in self._rdd_count

    def resident_count(self, rdd_id: int) -> int:
        """Number of memory-resident blocks of ``rdd_id``."""
        return self._rdd_count.get(rdd_id, 0)

    def resident_rdd_ids(self) -> list[int]:
        """Rdd ids with at least one memory-resident block (insertion order)."""
        return list(self._rdd_count)

    def resident_ids(self) -> AbstractSet[BlockId]:
        """Live view of the resident block ids, for membership tests."""
        return self._blocks.keys()

    # ------------------------------------------------------------------
    # columnar index
    # ------------------------------------------------------------------
    def ensure_columns(self) -> None:
        """Materialize the columnar index (idempotent).

        Called by policies when a batch selection first engages; before
        that, inserts and evictions skip row maintenance entirely, so
        stores that never cross a batch threshold never pay for the
        index.  Key/aux columns start stale — the caller's rebuild
        contract (``_keys_valid``/``_aux_dirty``)
        stamps them immediately after activation.
        """
        if self._cols_active:
            return
        cap = _INITIAL_CAPACITY
        while cap < len(self._blocks):
            cap *= 2
        self._alloc_columns(cap)
        self._cols_active = True
        for block in self._blocks.values():
            self._row_add(block)

    def _alloc_columns(self, cap: int) -> None:
        """Point the five columns at fresh zeroed arrays of ``cap`` rows.

        The only place numpy is imported for the store: it loads when
        the first batch selection builds the index, never on import.
        """
        import numpy as np

        self._col_rdd = np.zeros(cap, dtype=np.int64)
        self._col_part = np.zeros(cap, dtype=np.int64)
        self._col_size = np.zeros(cap, dtype=np.float64)
        self._col_key = np.zeros(cap, dtype=np.float64)
        self._col_aux = np.zeros(cap, dtype=np.float64)

    def columns(self) -> StoreColumns:
        """Dense views over the live rows; invalidated by inserts.

        Only meaningful after :meth:`ensure_columns` has activated the
        index.
        """
        n = len(self._row_ids)
        return StoreColumns(
            self._col_rdd[:n],
            self._col_part[:n],
            self._col_size[:n],
            self._col_key[:n],
            self._col_aux[:n],
        )

    def row_block_ids(self) -> list[BlockId]:
        """Block id per row, aligned with :meth:`columns`."""
        return self._row_ids

    def blocked_rows(self, protect: AbstractSet[BlockId]) -> list[int]:
        """Row indices that must not be evicted (pinned or protected)."""
        rows = self._rows
        blocked = [r for bid in protect if (r := rows.get(bid)) is not None]
        for bid, count in self._pinned.items():
            if count > 0 and (r := rows.get(bid)) is not None:
                blocked.append(r)
        return blocked

    def set_key(self, block_id: BlockId, value: float) -> None:
        """Write the primary key column for a resident block (else no-op)."""
        row = self._rows.get(block_id)
        if row is not None:
            self._col_key[row] = value

    def set_aux(self, block_id: BlockId, value: float) -> None:
        """Write the auxiliary key column for a resident block (else no-op)."""
        row = self._rows.get(block_id)
        if row is not None:
            self._col_aux[row] = value

    def _grow(self) -> None:
        names = ("_col_rdd", "_col_part", "_col_size", "_col_key", "_col_aux")
        old = [getattr(self, name) for name in names]
        n = old[0].shape[0]
        self._alloc_columns(2 * n)
        for name, column in zip(names, old, strict=True):
            getattr(self, name)[:n] = column

    def _row_add(self, block: Block) -> None:
        row = len(self._row_ids)
        if row == self._col_rdd.shape[0]:
            self._grow()
        bid = block.id
        self._col_rdd[row] = bid.rdd_id
        self._col_part[row] = bid.partition
        self._col_size[row] = block.size_mb
        # key/aux are deliberately left stale: both columns are only read
        # by batch selections, and every batching policy rewrites its
        # rows before the first read (the ``_keys_valid``/``_aux_dirty``
        # rebuild contracts) and maintains them per insert afterwards.
        self._rows[bid] = row
        self._row_ids.append(bid)

    def _row_del(self, block_id: BlockId) -> None:
        row = self._rows.pop(block_id)
        last = len(self._row_ids) - 1
        if row != last:
            moved = self._row_ids[last]
            self._row_ids[row] = moved
            self._rows[moved] = row
            self._col_rdd[row] = self._col_rdd[last]
            self._col_part[row] = self._col_part[last]
            self._col_size[row] = self._col_size[last]
            self._col_key[row] = self._col_key[last]
            self._col_aux[row] = self._col_aux[last]
        self._row_ids.pop()

    # ------------------------------------------------------------------
    # pinning — blocks being read by a running task must not be evicted
    # ------------------------------------------------------------------
    def pin(self, block_id: BlockId) -> None:
        if block_id not in self._blocks:
            raise KeyError(f"cannot pin absent block {block_id}")
        self._pinned[block_id] = self._pinned.get(block_id, 0) + 1

    def unpin(self, block_id: BlockId) -> None:
        count = self._pinned.get(block_id, 0)
        if count <= 0:
            raise ValueError(f"unpin without pin for {block_id}")
        if count == 1:
            del self._pinned[block_id]
        else:
            self._pinned[block_id] = count - 1

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def get(self, block_id: BlockId) -> Block | None:
        """Read a block (cache hit path); updates policy recency state."""
        block = self._blocks.get(block_id)
        if block is not None:
            self.policy.on_access(block)
        return block

    def put(
        self,
        block: Block,
        protect: AbstractSet[BlockId] = frozenset(),
        prefetch: bool = False,
    ) -> PutResult:
        """Insert ``block``, evicting per policy if needed.

        ``protect`` lists blocks that must not be chosen as victims even
        if unpinned (e.g. sibling input blocks of the inserting task).
        ``prefetch`` marks prefetch-triggered insertions, which may use
        a different victim order and admission rule (see
        :meth:`EvictionPolicy.prefetch_eviction_order`).
        Returns whether the block was stored and what was evicted.
        """
        bid = block.id
        policy = self.policy
        if bid in self._blocks:
            policy.on_access(block)
            return _STORED
        size = block.size_mb
        capacity = self.capacity_mb
        if size > capacity:
            return _REFUSED
        needed = size - (capacity - self._used_mb)
        if needed > 0:
            # One question: the victims, if the policy admits ``block``
            # over them at all.  ``block`` is not resident (checked
            # above), so no victim walk can meet it: ``protect`` needs
            # no copy with it added.
            victims = policy.select_victims(self, needed, protect, prefetch, block)
            if victims is None:
                return _REFUSED
            evicted = tuple(map(self._evict, victims))
        else:
            evicted = ()
        self._blocks[bid] = block
        self._used_mb += size
        rdd_count = self._rdd_count
        rdd_id = bid.rdd_id
        rdd_count[rdd_id] = rdd_count.get(rdd_id, 0) + 1
        if self._cols_active:
            self._row_add(block)
        policy.on_insert(block)
        return PutResult._make((True, evicted)) if evicted else _STORED

    def remove(self, block_id: BlockId) -> Block | None:
        """Drop a block outright (purge path); no-op if absent."""
        if block_id not in self._blocks:
            return None
        if self.is_pinned(block_id):
            raise ValueError(f"cannot remove pinned block {block_id}")
        return self._evict(block_id)

    def _evict(self, block_id: BlockId) -> Block:
        block = self._blocks.pop(block_id)
        used = self._used_mb - block.size_mb
        # Guard against float drift on long runs.
        self._used_mb = used if used >= 1e-9 else 0.0
        rdd_count = self._rdd_count
        rdd_id = block_id.rdd_id
        count = rdd_count[rdd_id]
        if count == 1:
            del rdd_count[rdd_id]
        else:
            rdd_count[rdd_id] = count - 1
        if self._cols_active:
            self._row_del(block_id)
        self.policy.on_remove(block_id)
        return block


@contextmanager
def store_mode(columnar: bool) -> Iterator[None]:
    """Temporarily force the store mode for newly built clusters.

    Used by the benchmark and equivalence tests to run the same
    workload on the columnar hot path and the object-based reference
    path; affects only stores constructed inside the ``with`` block.
    """
    prev = MemoryStore.columnar_default
    MemoryStore.columnar_default = columnar
    try:
        yield
    finally:
        MemoryStore.columnar_default = prev
