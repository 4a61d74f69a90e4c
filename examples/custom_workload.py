#!/usr/bin/env python3
"""Defining your own workload and comparing every policy on it.

Shows the full extension path a downstream user follows:

1. write an RDD program (here: a two-phase ETL + training pipeline
   whose feature table is re-read with a long gap — the access pattern
   MRD handles and LRU/LRC do not);
2. wrap it in a :class:`WorkloadSpec` and register it, so the sweep
   harness finds it by name exactly like the built-in SparkBench
   workloads;
3. sweep cache sizes across the standard policy line-up and export the
   results to CSV/JSON with :mod:`repro.simulator.reporting`.

Run:  python examples/custom_workload.py
"""

import tempfile
from pathlib import Path

from repro.dag import SparkContext
from repro.experiments import STANDARD_SCHEMES, format_table, sweep_workload
from repro.simulator import MAIN_CLUSTER
from repro.simulator.reporting import save_comparison_csv
from repro.workloads import WorkloadParams, WorkloadSpec
from repro.workloads.base import iterations_or_default, scaled
from repro.workloads.registry import register_workload


def build_etl_train(ctx: SparkContext, params: WorkloadParams) -> None:
    """ETL phase builds cached tables; training re-reads them much later."""
    size = scaled(params, 1200.0)
    parts = params.partitions
    epochs = iterations_or_default(params, 6)

    raw = ctx.text_file("clickstream", size_mb=size, num_partitions=parts)
    cleaned = raw.filter(selectivity=0.7, name="cleaned").cache()
    # ETL: several aggregation jobs over the cleaned data.
    sessions = cleaned.reduce_by_key(size_factor=0.4, name="sessions").cache()
    sessions.count(name="etl-sessionize")
    features = sessions.join(
        cleaned.map(size_factor=0.2, name="user-attrs"),
        size_factor=0.3, name="features",
    ).cache()
    features.count(name="etl-featurize")
    # A reporting job that never touches the feature table: it creates
    # the long reference gap that distinguishes the policies.
    report = cleaned.reduce_by_key(size_factor=0.05, name="daily-report")
    report.collect(name="reporting")
    # Training: epochs over the cached feature table.
    for epoch in range(epochs):
        grads = features.map_partitions(
            size_factor=0.02, cpu_per_mb=0.01, name=f"epoch-{epoch}"
        )
        grads.collect(name=f"train-{epoch}")
    # Final evaluation re-reads both cached tables.
    features.zip_partitions(
        sessions, size_factor=0.01, name="eval"
    ).collect(name="evaluate")


SPEC = WorkloadSpec(
    name="ETL-Train",
    full_name="ETL + training pipeline",
    suite="custom",
    category="Example",
    job_type="Mixed",
    input_mb=1200.0,
    default_iterations=6,
    builder=build_etl_train,
)


def main() -> None:
    # replace=True keeps main() safe to run twice in one process.
    register_workload(SPEC, replace=True)
    sweep = sweep_workload(
        SPEC.name,
        schemes=STANDARD_SCHEMES,
        cluster=MAIN_CLUSTER,
        cache_fractions=(0.25, 0.5),
    )
    rows = []
    for fraction in sweep.fractions():
        for scheme in sweep.schemes():
            run = sweep.get(scheme, fraction)
            rows.append(
                (fraction, scheme, round(run.jct, 2),
                 round(sweep.normalized_jct(scheme, fraction), 3),
                 f"{run.hit_ratio * 100:.0f}%")
            )
    print(format_table(
        ["Fraction", "Policy", "JCT(s)", "vs LRU", "Hit"],
        rows, title=f"Custom workload: {SPEC.full_name}",
    ))

    with tempfile.TemporaryDirectory() as tmp:
        path = save_comparison_csv(
            [sweep.get(s, 0.5).metrics for s in sweep.schemes()],
            Path(tmp) / "etl_train.csv",
        )
        print(f"\nexported per-policy results to {path} (CSV; see "
              f"repro.simulator.reporting for JSON and per-stage timelines)")


if __name__ == "__main__":
    main()
