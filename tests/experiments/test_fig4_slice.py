"""Pinned digests of the Fig. 4 grid and of a slice of its results.

The default grid is pinned by its cells' fingerprints (listed, not
run): they are the result-store keys a swept Fig. 4 store is read by.

Three graph/ML workloads at a tight and a roomy cache fraction, under
all four Fig. 4 schemes, run exactly as ``fig4.run`` runs them.  Every
eviction, refusal, promote and prefetch on this path feeds a metric the
digest covers, so any bit-level change to what the Fig. 4 grid computes
shows here without running the full sweep.
"""

from __future__ import annotations

import hashlib

from repro.experiments import fig4
from repro.experiments.harness import sweep_workload
from repro.simulator.config import MAIN_CLUSTER

from tests.simulator.run_digest import run_digest

SLICE_WORKLOADS = ("PR", "KM", "SVD++")
SLICE_FRACTIONS = (0.35, 0.7)

PINNED_SLICE_DIGEST = "a748d12e3aef6655"

#: SHA-256 (first 16 hex chars) of the newline-joined sorted
#: fingerprints of ``fig4.cells()``.
PINNED_GRID_DIGEST = "07b225f642320fe9"


def test_fig4_default_grid_is_pinned():
    fingerprints = sorted(cell.fingerprint() for cell in fig4.cells())
    assert len(fingerprints) == len(set(fingerprints)) == 336
    digest = hashlib.sha256("\n".join(fingerprints).encode()).hexdigest()[:16]
    assert digest == PINNED_GRID_DIGEST


def test_fig4_slice_digest_is_pinned():
    metrics = []
    for name in SLICE_WORKLOADS:
        sweep = sweep_workload(
            name,
            schemes=fig4.FIG4_SCHEMES,
            cluster=MAIN_CLUSTER,
            cache_fractions=SLICE_FRACTIONS,
        )
        metrics.extend(run.metrics for run in sweep.runs)
    assert len(metrics) == len(SLICE_WORKLOADS) * len(SLICE_FRACTIONS) * 4
    assert run_digest(metrics) == PINNED_SLICE_DIGEST
