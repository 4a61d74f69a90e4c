"""Extension bench — MRD against the offline optimum.

Not a paper figure, but it substantiates the paper's §3.1 claim that
DAG-aware policies "approximate Belady's MIN": we measure how close
MRD-eviction gets to the stage-granular MIN it is designed around and
to the true block-level MIN recovered from the recorded access trace,
and how full MRD (with prefetching) compares against both pure-eviction
oracles.
"""

from repro.core.policy import MrdScheme
from repro.experiments.harness import build_workload_dag, cache_mb_for, format_table
from repro.policies.scheme import BeladyScheme, LruScheme
from repro.policies.trace_min import true_min_metrics
from repro.simulator.config import MAIN_CLUSTER
from repro.simulator.engine import simulate

WORKLOADS = ("PR", "CC", "SVD++", "KM")
CACHE_FRACTION = 0.5


def run():
    results = {}
    for name in WORKLOADS:
        dag = build_workload_dag(name)
        config = MAIN_CLUSTER.with_cache(cache_mb_for(dag, CACHE_FRACTION, MAIN_CLUSTER))
        results[name] = {
            "LRU": simulate(dag, config, LruScheme()),
            "MRD-evict": simulate(dag, config, MrdScheme(prefetch=False)),
            "Belady": simulate(dag, config, BeladyScheme()),
            "True-MIN": true_min_metrics(dag, config),
            "MRD": simulate(dag, config, MrdScheme()),
        }
    return results


def render(results):
    rows = []
    for name, runs in results.items():
        lru = runs["LRU"].jct
        rows.append(
            [name]
            + [round(runs[s].jct / lru, 3) for s in
               ("MRD-evict", "Belady", "True-MIN", "MRD")]
            + [f"{runs['MRD-evict'].hit_ratio * 100:.0f}%",
               f"{runs['True-MIN'].hit_ratio * 100:.0f}%"]
        )
    return format_table(
        ["Workload", "MRD-evict", "Belady", "True-MIN", "Full-MRD",
         "MRD-evict hit", "True-MIN hit"],
        rows,
        title="Oracle comparison: JCT normalized to LRU (lower is better)",
    )


def test_oracle_comparison(run_experiment):
    results = run_experiment(run, render=render)
    for name, runs in results.items():
        # MRD's eviction ranking matches the stage-granular oracle.
        assert runs["MRD-evict"].stats.hits == runs["Belady"].stats.hits
        # The block-level oracle can only match or beat it on hits
        # (small slack for remote-access trace staleness).
        assert runs["True-MIN"].stats.hits >= runs["Belady"].stats.hits - 5
        # Prefetching pushes full MRD past every pure-eviction policy.
        assert runs["MRD"].jct <= runs["True-MIN"].jct * 1.05
