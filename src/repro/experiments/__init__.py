"""Experiment drivers: one module per table/figure of the paper.

Each module exposes ``run()`` (returns structured results) and
``render()`` (plain-text table).  ``repro report``
(:mod:`repro.experiments.report`) runs them all and checks the paper's
headline claims (:mod:`repro.experiments.claims`); EXPERIMENTS.md
records the measured numbers against the paper's.
"""

from repro.experiments import (  # noqa: F401
    fig2,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11_12,
    fig_control_latency,
    fig_elastic,
    fig_load,
    table1,
    table3,
)
from repro.experiments.harness import (
    DEFAULT_CACHE_FRACTIONS,
    STANDARD_SCHEMES,
    SweepResult,
    WorkloadRun,
    build_workload_dag,
    cache_mb_for,
    format_table,
    sweep_workload,
)

__all__ = [
    "DEFAULT_CACHE_FRACTIONS",
    "STANDARD_SCHEMES",
    "SweepResult",
    "WorkloadRun",
    "build_workload_dag",
    "cache_mb_for",
    "fig10",
    "fig11_12",
    "fig2",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig_control_latency",
    "fig_elastic",
    "fig_load",
    "format_table",
    "sweep_workload",
    "table1",
    "table3",
]
