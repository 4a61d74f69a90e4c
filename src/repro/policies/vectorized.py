"""Batched victim selection over the columnar block store.

The per-object reference path walks a policy's ``eviction_order`` one
block at a time (``EvictionPolicy.select_victims``).  This module is
the vectorized equivalent used by policies that maintain a *key column*
on a columnar :class:`~repro.cluster.memory_store.MemoryStore`: an
``argpartition``-style k-smallest cut over the key column, a full sort
of the small candidate set, and a cumulative-size cut — O(n) + O(k log
k) instead of O(n log n) python-object sorting per selection.

Tie-break contract
------------------
``numpy.partition``/``argpartition`` order is *unspecified* among equal
keys, so the partitioned prefix must never leak into eviction order.
The selection below is made deterministic in two steps:

1. **Tie-inclusive candidate cut** — the candidate set is *every* row
   whose primary key is ``<=`` the k-th smallest value, so rows tied at
   the cut boundary are all included and the candidate set is exactly a
   prefix of the policy's total order.
2. **Total-order sort** — candidates are ordered by ``lexsort`` over
   ``(primary, *ties)``; callers must supply tie columns that end in
   the block-id columns (sorted id order), making the composite key
   unique per block.  Equal primary keys therefore always resolve the
   same way, byte-identical to the per-object reference walk.

The cumulative-size cut reproduces the reference walk's *sequential*
float accumulation (``numpy.cumsum`` over float64 performs the same
IEEE additions in the same order as ``freed += size_mb``), so the
chosen victim set matches the object path bit-for-bit.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.block import BlockId
    from repro.cluster.memory_store import MemoryStore, StoreColumns

#: Initial k-smallest prefix size for the partition cut.  Selections
#: rarely need more than a handful of victims; the cut grows 4x (and
#: re-sorts) only when the prefix cannot cover the request.
_INITIAL_K = 8


def batch_select_rows(
    primary: np.ndarray,
    ties: tuple[np.ndarray, ...],
    sizes: np.ndarray,
    needed_mb: float,
    blocked_rows: list[int],
) -> np.ndarray | None:
    """Rows to evict (in eviction order) to free ``needed_mb``.

    ``primary`` is the policy's key column (ascending = evict first);
    ``ties`` are additional sort columns, *least* significant first,
    whose composite with ``primary`` must totally order the rows (see
    the module tie-break contract).  ``blocked_rows`` lists row indices
    that must not be chosen (pinned or protected).  Returns ``None``
    when the evictable rows cannot cover the request — the same refusal
    the per-object walk produces.
    """
    if needed_mb <= 0.0:
        return np.empty(0, dtype=np.intp)
    n = primary.shape[0]
    idx: np.ndarray | None = None
    if blocked_rows:
        ok = np.ones(n, dtype=bool)
        ok[blocked_rows] = False
        idx = np.nonzero(ok)[0]
        m = int(idx.shape[0])
    else:
        m = n
    if m == 0:
        return None
    k = _INITIAL_K
    while True:
        if k < m:
            evictable = primary if idx is None else primary[idx]
            kth = np.partition(evictable, k - 1)[k - 1]
            # Tie-inclusive cut: every row tied at the boundary is a
            # candidate, so the set is a prefix of the total order and
            # the partition's unspecified internal order cannot leak.
            cand = np.nonzero(evictable <= kth)[0]
            if idx is not None:
                cand = idx[cand]
        else:
            cand = np.arange(n, dtype=np.intp) if idx is None else idx
        order = np.lexsort(tuple(t[cand] for t in ties) + (primary[cand],))
        cand = cand[order]
        csum = np.cumsum(sizes[cand])
        pos = int(np.searchsorted(csum, needed_mb, side="left"))
        if pos < cand.shape[0]:
            return cand[: pos + 1]
        if k >= m:
            return None
        k *= 4


def select_block_victims(
    store: MemoryStore,
    cols: StoreColumns,
    needed_mb: float,
    protect: AbstractSet[BlockId],
    primary: np.ndarray,
    ties: tuple[np.ndarray, ...],
) -> list[BlockId] | None:
    """Block-id level wrapper around :func:`batch_select_rows`.

    Maps the protected/pinned block ids to row indices, selects, and
    maps the chosen rows back to :class:`BlockId` in eviction order.
    """
    rows = batch_select_rows(
        primary, ties, cols.size, needed_mb, store.blocked_rows(protect)
    )
    if rows is None:
        return None
    ids = store.row_block_ids()
    return [ids[i] for i in rows]
