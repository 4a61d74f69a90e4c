"""MRD reproduction: DAG-aware cache management for Spark, in simulation.

Reproduces Perez, Zhou & Cheng, "Reference-distance Eviction and
Prefetching for Cache Management in Spark" (ICPP 2018) as a pure-Python
discrete-event simulator plus the paper's policy (MRD) and baselines.

Subpackages
-----------
``repro.dag``
    RDD lineage, job/stage compilation, reference profiles, analysis.
``repro.cluster``
    Blocks, memory/disk stores, nodes, block managers, cluster configs.
``repro.simulator``
    The execution engine, cost model, metrics, failures, reporting.
``repro.policies``
    LRU/FIFO/LFU/Random, LRC, MemTune, Belady (MIN), True-MIN, schemes.
``repro.core``
    The paper's contribution: AppProfiler, MRDmanager, CacheMonitor,
    the MRD_Table and the pluggable ``MrdScheme``.
``repro.workloads``
    SparkBench/HiBench DAG generators and the synthetic random family.
``repro.experiments``
    One driver per paper table/figure plus the sweep harness.

Quick start
-----------
>>> from repro.dag import SparkContext, SparkApplication, build_dag
>>> from repro.core import MrdScheme
>>> from repro.simulator import MAIN_CLUSTER, simulate
>>> ctx = SparkContext("app")
>>> data = ctx.text_file("in", size_mb=100, num_partitions=8).map().cache()
>>> _ = data.count(); _ = data.collect()
>>> metrics = simulate(build_dag(SparkApplication(ctx)),
...                    MAIN_CLUSTER.with_cache(16.0), MrdScheme())
>>> metrics.hit_ratio > 0
True
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
