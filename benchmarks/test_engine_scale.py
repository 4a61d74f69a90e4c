"""Scale benchmark — the event-queue scheduler at 5000+ tasks, 16 nodes.

Times :class:`~repro.simulator.engine.SparkSimulator` on the synthetic
applications of :mod:`repro.bench.engine_bench` under both scheduling
cores.  ``test_event_core_speedup_floors`` is the engine's speed gate:
the reference ÷ event wall-time ratio, measured in one process, must
stay within 2× of the speedup the event core was committed at.  The
pytest-benchmark wrapper times the scheduling-bound profile alongside
the other microbenchmarks:

    pytest benchmarks/test_engine_scale.py --benchmark-only -s

Also asserts the cores' invariant — both produce identical RunMetrics —
at full benchmark scale.
"""

import time

import pytest

from repro.bench.engine_bench import (
    BENCH_SCHEMES,
    BenchConfig,
    _metrics_fingerprint,
    build_bench_dag,
    total_tasks,
)
from repro.simulator.engine import SparkSimulator

CONFIG = BenchConfig(repeats=1)

#: Sizing of the speedup gate: ≥1500 tasks, best of 3 per core.
SPEEDUP_CONFIG = BenchConfig(min_tasks=1500, repeats=3)

#: Floors on reference ÷ event wall time per (profile, scheme): half the
#: speedups the event core was committed at (21.92, 13.93, 1.73, 1.44),
#: so only a >2× collapse fails.  Ratios of two cores timed in one
#: process carry over between machines where raw seconds do not.
SPEEDUP_FLOORS = {
    ("sched", "LRU"): 10.96,
    ("sched", "MRD"): 6.96,
    ("cache", "LRU"): 0.86,
    ("cache", "MRD"): 0.72,
}


def _run(dag, profile, scheme_name, scheduler):
    sim = SparkSimulator(
        dag, CONFIG.cluster(profile), BENCH_SCHEMES[scheme_name](), scheduler=scheduler
    )
    return sim.run()


@pytest.mark.parametrize("scheme_name", sorted(BENCH_SCHEMES))
@pytest.mark.parametrize("scheduler", ["event", "reference"])
def test_engine_scale_sched_profile(benchmark, scheme_name, scheduler):
    """Scheduling-bound profile: isolates the scheduler cores."""
    dag = build_bench_dag(CONFIG, "sched")
    assert total_tasks(dag) >= CONFIG.min_tasks
    benchmark.pedantic(
        lambda: _run(dag, "sched", scheme_name, scheduler), rounds=3, iterations=1
    )


@pytest.mark.parametrize("scheme_name", sorted(BENCH_SCHEMES))
def test_engine_scale_metrics_identical(scheme_name):
    """Both cores simulate the same execution at benchmark scale, on
    each profile's own cluster: the cache profile must evict."""
    for profile in ("sched", "cache"):
        dag = build_bench_dag(CONFIG, profile)
        event = _run(dag, profile, scheme_name, "event")
        reference = _run(dag, profile, scheme_name, "reference")
        assert _metrics_fingerprint(event) == _metrics_fingerprint(reference), (
            f"cores diverged on {profile}/{scheme_name}"
        )
        if profile == "cache":
            assert event.stats.evictions >= 1, f"{profile}/{scheme_name} never evicted"


def test_event_core_speedup_floors():
    """The event core stays within 2× of its committed speedup."""
    failures = []
    for profile, scheme_name in SPEEDUP_FLOORS:
        dag = build_bench_dag(SPEEDUP_CONFIG, profile)
        cluster = SPEEDUP_CONFIG.cluster(profile)
        best = {"event": float("inf"), "reference": float("inf")}
        fingerprints = set()
        # Alternate the cores so a slow host phase hits both alike.
        for _ in range(SPEEDUP_CONFIG.repeats):
            for scheduler in best:
                sim = SparkSimulator(
                    dag, cluster, BENCH_SCHEMES[scheme_name](), scheduler=scheduler
                )
                t0 = time.perf_counter()
                metrics = sim.run()
                best[scheduler] = min(best[scheduler], time.perf_counter() - t0)
                fingerprints.add(_metrics_fingerprint(metrics))
        assert len(fingerprints) == 1, f"cores diverged on {profile}/{scheme_name}"
        speedup = best["reference"] / best["event"]
        floor = SPEEDUP_FLOORS[profile, scheme_name]
        if speedup < floor:
            failures.append(
                f"{profile}/{scheme_name}: {speedup:.2f}x < floor {floor:.2f}x"
            )
    assert not failures, "event-core speedup collapsed: " + "; ".join(failures)
