"""Figure 4 — overall MRD performance vs LRU on the main cluster.

The headline experiment: all fourteen SparkBench workloads, cache-size
sweep, three MRD variants.  Shape targets from the paper: full MRD
average ≈ 0.53 of LRU (we accept < 0.65; measured 0.61), I/O-intensive workloads gain
the most, DT/CPU-bound workloads the least, and eviction provides the
bulk of the improvement.
"""

from repro.experiments import fig4


def test_fig4_overall_performance(run_experiment):
    rows = run_experiment(fig4.run, render=fig4.render)
    by_name = {r.workload: r for r in rows}
    avg = fig4.averages(rows)

    # Average improvement in the paper's direction and magnitude band.
    assert avg["full"] < 0.65, "full MRD should average well below LRU"
    assert avg["full"] <= avg["evict_only"] + 0.02
    # Hit ratio rises across the board (paper: all workloads increase).
    assert avg["mrd_hit"] > avg["lru_hit"]
    # I/O-intensive beat CPU-intensive (paper §5.10).
    io_avg = sum(by_name[w].full for w in ("PR", "LP", "SVD++", "CC", "PO")) / 5
    cpu_avg = sum(by_name[w].full for w in ("LinR", "LogR", "DT")) / 3
    assert io_avg < cpu_avg
    # Every workload individually improves or stays flat.
    assert all(r.full <= 1.02 for r in rows)
