"""Workload registry: name → :class:`WorkloadSpec`.

The canonical entry point for examples, tests and benchmarks:

>>> from repro.workloads import get_workload, build_workload
>>> app = build_workload("PR")          # SparkBench PageRank, defaults
>>> spec = get_workload("SCC")          # metadata + custom builds
"""

from __future__ import annotations


from repro.dag.context import SparkApplication
from repro.workloads.base import WorkloadParams, WorkloadSpec
from repro.workloads.hibench.bayes import SPEC as _BAYES
from repro.workloads.hibench.kmeans import SPEC as _HI_KMEANS
from repro.workloads.hibench.pagerank import SPEC as _HI_PAGERANK
from repro.workloads.hibench.sort import SPEC as _SORT
from repro.workloads.hibench.terasort import SPEC as _TERASORT
from repro.workloads.hibench.wordcount import SPEC as _WORDCOUNT
from repro.workloads.sparkbench.connected_components import SPEC as _CC
from repro.workloads.sparkbench.decision_tree import SPEC as _DT
from repro.workloads.sparkbench.kmeans import SPEC as _KM
from repro.workloads.sparkbench.label_propagation import SPEC as _LP
from repro.workloads.sparkbench.linear_regression import SPEC as _LINR
from repro.workloads.sparkbench.logistic_regression import SPEC as _LOGR
from repro.workloads.sparkbench.matrix_factorization import SPEC as _MF
from repro.workloads.sparkbench.pagerank import SPEC as _PR
from repro.workloads.sparkbench.pregel_operation import SPEC as _PO
from repro.workloads.sparkbench.shortest_paths import SPEC as _SP
from repro.workloads.sparkbench.strongly_connected_components import SPEC as _SCC
from repro.workloads.sparkbench.svdpp import SPEC as _SVDPP
from repro.workloads.sparkbench.svm import SPEC as _SVM
from repro.workloads.sparkbench.triangle_count import SPEC as _TC

#: Paper order (Table 3): the fourteen SparkBench workloads.
SPARKBENCH_WORKLOADS: tuple[WorkloadSpec, ...] = (
    _KM, _LINR, _LOGR, _SVM, _DT, _MF, _PR, _TC, _SP, _LP, _SVDPP, _CC, _SCC, _PO,
)

#: Paper order (Table 1): the six HiBench workloads of the preliminary study.
HIBENCH_WORKLOADS: tuple[WorkloadSpec, ...] = (
    _SORT, _WORDCOUNT, _TERASORT, _HI_PAGERANK, _BAYES, _HI_KMEANS,
)

ALL_WORKLOADS: tuple[WorkloadSpec, ...] = SPARKBENCH_WORKLOADS + HIBENCH_WORKLOADS

_BY_NAME: dict[str, WorkloadSpec] = {spec.name: spec for spec in ALL_WORKLOADS}


def register_workload(spec: WorkloadSpec, replace: bool = False) -> WorkloadSpec:
    """Register a dynamically created spec (e.g. an ingested trace).

    Registered specs are first-class: :func:`get_workload`,
    :func:`build_workload` and :func:`workload_names` all see them, so
    experiment harnesses can sweep a recorded application next to the
    synthetic benchmarks.  Re-registering an existing name requires
    ``replace=True``; the built-in benchmark names cannot be replaced.
    """
    if spec.name in _BY_NAME:
        builtin = any(s.name == spec.name for s in ALL_WORKLOADS)
        if builtin:
            raise ValueError(f"cannot replace built-in workload {spec.name!r}")
        if not replace:
            raise ValueError(
                f"workload {spec.name!r} already registered (pass replace=True)"
            )
    _BY_NAME[spec.name] = spec
    return spec


def workload_names(suite: str | None = None) -> list[str]:
    """Registered workload names, optionally filtered by suite.

    Built-in benchmarks come first in paper order; dynamically
    registered specs follow in registration order.
    """
    specs: tuple[WorkloadSpec, ...] = ALL_WORKLOADS + tuple(
        s for s in _BY_NAME.values() if s not in ALL_WORKLOADS
    )
    if suite is not None:
        specs = tuple(s for s in specs if s.suite == suite)
    return [s.name for s in specs]


def get_workload(name: str) -> WorkloadSpec:
    """Look up a workload spec by its short name (e.g. ``"SCC"``)."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {sorted(_BY_NAME)}"
        ) from None


def build_workload(
    name: str,
    params: WorkloadParams | None = None,
    first_rdd_id: int = 0,
    **kwargs,
) -> SparkApplication:
    """Build an application for workload ``name``.

    Keyword arguments are forwarded to :class:`WorkloadParams` when no
    explicit ``params`` is given (``scale=``, ``iterations=``,
    ``partitions=``).  ``first_rdd_id`` offsets the rdd-id namespace
    (multi-tenant builds).
    """
    if params is not None and kwargs:
        raise TypeError("pass either params or keyword overrides, not both")
    spec = get_workload(name)
    return spec.build(params or WorkloadParams(**kwargs), first_rdd_id=first_rdd_id)
