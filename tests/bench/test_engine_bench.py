"""Engine benchmark input sizing: ``build_bench_dag``'s job-count search."""

from __future__ import annotations

import pytest

from repro.bench.engine_bench import (
    _PROFILES,
    BenchConfig,
    bench_profile_names,
    build_bench_dag,
    total_tasks,
)
from repro.dag.dag_builder import build_dag
from repro.workloads.synthetic import SyntheticConfig, generate_application


def _linear_job_count(config: BenchConfig, profile: str) -> int:
    """The reference: add two jobs at a time until the floor clears."""
    num_jobs = 4
    while True:
        cfg = SyntheticConfig(
            num_jobs=num_jobs, partitions=config.partitions,
            **_PROFILES[profile].overrides,
        )
        if total_tasks(build_dag(generate_application(config.seed, cfg))) >= config.min_tasks:
            return num_jobs
        num_jobs += 2


@pytest.mark.parametrize("profile", bench_profile_names())
@pytest.mark.parametrize("min_tasks", [1, 1500, 6000])
def test_search_matches_linear_loop(profile, min_tasks):
    config = BenchConfig(min_tasks=min_tasks, partitions=48)
    dag = build_bench_dag(config, profile)
    assert dag.num_jobs == _linear_job_count(config, profile)
    assert total_tasks(dag) >= min_tasks
