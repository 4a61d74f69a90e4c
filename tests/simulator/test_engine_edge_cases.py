"""Engine edge cases: remote reads, promotion knobs, degenerate configs."""

import pytest

from repro.cluster.cluster import ClusterConfig
from repro.cluster.network import DiskModel, NetworkModel
from repro.dag.context import SparkApplication, SparkContext
from repro.dag.dag_builder import build_dag
from repro.policies.scheme import FifoScheme, LfuScheme, LruScheme, RandomScheme
from repro.simulator.engine import SimulationError, SparkSimulator, simulate
from tests.conftest import make_linear_app


def config(nodes=3, slots=2, cache=1000.0, net_mbps=80.0):
    return ClusterConfig(
        num_nodes=nodes,
        slots_per_node=slots,
        cache_mb_per_node=cache,
        network=NetworkModel(bandwidth_mbps=net_mbps, latency_s=0.0),
        disk=DiskModel(bandwidth_mb_per_s=100.0, seek_s=0.0),
    )


def misaligned_app():
    """Stage with more tasks than the cached RDD has partitions.

    The wide output has 8 partitions while the cached parent has 4, so
    tasks 4-7 read blocks 0-3 — on a 3-node cluster some of those reads
    are remote (task node ≠ block home node).
    """
    ctx = SparkContext("misaligned")
    data = ctx.text_file("in", size_mb=40.0, num_partitions=4).map(name="d").cache()
    data.count()
    wide = data.reduce_by_key(num_partitions=8, name="wide")
    wide.count()
    return SparkApplication(ctx)


class TestRemoteReads:
    def test_remote_cache_reads_cost_network_time(self):
        dag = build_dag(misaligned_app())
        fast_net = simulate(dag, config(net_mbps=8000.0), LruScheme())
        slow_net = simulate(dag, config(net_mbps=8.0), LruScheme())
        # Hits are identical; only the remote transfer cost differs.
        assert fast_net.stats.hits == slow_net.stats.hits
        assert slow_net.jct > fast_net.jct

    def test_all_blocks_written_despite_misalignment(self):
        dag = build_dag(misaligned_app())
        sim = SparkSimulator(dag, config(), LruScheme())
        sim.run()
        cached = {b.id for b in sim.cluster.master.cached_blocks()}
        data_rdd = next(p.rdd for p in dag.profiles.values())
        assert {b.partition for b in cached if b.rdd_id == data_rdd.id} == {0, 1, 2, 3}


class TestDegenerateConfigs:
    def test_zero_cache_still_completes(self):
        dag = build_dag(make_linear_app(num_jobs=3))
        metrics = simulate(dag, config(cache=0.0), LruScheme())
        assert metrics.hit_ratio == 0.0
        assert metrics.num_stages_executed == dag.num_active_stages

    def test_single_node_single_slot(self):
        dag = build_dag(make_linear_app(num_jobs=3))
        metrics = simulate(dag, config(nodes=1, slots=1), LruScheme())
        assert metrics.jct > 0
        assert len(metrics.per_node_hit_ratio) == 1

    def test_many_more_nodes_than_partitions(self):
        dag = build_dag(make_linear_app(num_jobs=3))  # 8 partitions
        metrics = simulate(dag, config(nodes=16), LruScheme())
        assert metrics.num_stages_executed == dag.num_active_stages

    def test_missing_block_raises_simulation_error(self):
        dag = build_dag(make_linear_app(num_jobs=3))
        sim = SparkSimulator(dag, config(), LruScheme())
        # Sabotage: drop the disk copies after the first stage by
        # running and then deleting, then re-running a doctored engine
        # is complex — instead verify the error path directly.
        sim.scheme.prepare(dag)
        from repro.cluster.cluster import build_cluster

        sim.cluster = build_cluster(config(), sim.scheme.policy_factory)
        mgr = sim.cluster.master.managers[0]
        from repro.cluster.block import BlockId

        with pytest.raises(SimulationError, match="neither in memory nor on disk"):
            sim._acquire_block(mgr, BlockId(0, 0), 1.0, 0.0, set())


class TestObliviousSchemes:
    @pytest.mark.parametrize(
        "scheme_factory", [FifoScheme, LfuScheme, lambda: RandomScheme(seed=5)]
    )
    def test_extra_baselines_run_end_to_end(self, scheme_factory):
        dag = build_dag(make_linear_app(num_jobs=4))
        metrics = simulate(dag, config(cache=20.0), scheme_factory())
        assert metrics.jct > 0
        assert 0.0 <= metrics.hit_ratio <= 1.0
