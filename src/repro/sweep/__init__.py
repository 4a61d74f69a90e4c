"""Deterministic parallel sweep runner with a resumable result store.

The paper's evaluation is a grid — workloads × policies × cache sizes ×
modes — and this package is the layer that makes that grid cheap to
(re-)run:

* :mod:`repro.sweep.spec` — declarative grids (:class:`GridSpec`) that
  expand into content-addressed cells (:class:`CellSpec`).
* :mod:`repro.sweep.schemes` — picklable scheme descriptions
  (:class:`SchemeSpec`) so cells can cross process boundaries.
* :mod:`repro.sweep.runner` — :func:`run_cells`: a multiprocessing
  fan-out with per-cell failure isolation and bit-identical results at
  any ``jobs`` count, over :func:`execute_cell`, the one code path that
  turns a cell into a simulation (``repro run`` and ``repro trace``
  use it too).
* :mod:`repro.sweep.store` — :class:`ResultStore`: atomic per-cell
  result files keyed by config fingerprint, giving resume-after-
  interrupt and zero recomputation for unchanged cells.
* :mod:`repro.sweep.progress` — :class:`SweepProgress`, the stderr
  progress callback with a clamped, never-``inf`` ETA.

The experiment drivers (``repro.experiments``) and the ``repro sweep``
CLI are built on these; ``docs/sweeping.md`` is the user guide.
"""

from repro.sweep.progress import SweepProgress
from repro.sweep.runner import (
    SweepError,
    SweepOutcome,
    execute_cell,
    run_cell,
    run_cells,
    scheduler_mismatches,
)
from repro.sweep.schemes import SCHEME_SPECS, SchemeSpec, resolve_scheme
from repro.sweep.spec import (
    FINGERPRINT_VERSION,
    CellSpec,
    GridSpec,
    load_grid,
    validate_cells,
)
from repro.sweep.store import CellResult, ResultStore

__all__ = [
    "FINGERPRINT_VERSION",
    "SCHEME_SPECS",
    "CellResult",
    "CellSpec",
    "GridSpec",
    "ResultStore",
    "SchemeSpec",
    "SweepError",
    "SweepOutcome",
    "SweepProgress",
    "execute_cell",
    "load_grid",
    "resolve_scheme",
    "run_cell",
    "run_cells",
    "scheduler_mismatches",
    "validate_cells",
]
