"""Pinned digests of dense multi-tenant runs.

These streams keep eight applications overlapping on a small shared
cluster — mixed workloads and schemes, Poisson arrivals every half
second on average, a lossy jittered rpc plane — so the interleaving of
many applications' tasks, control deliveries and prefetch completions
on shared slots is pinned under every arbitration.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterConfig
from repro.control.plane import RpcConfig
from repro.tenancy import AppSpec, MultiTenantSimulator, PoissonArrivals
from tests.simulator.run_digest import run_digest

CLUSTER = ClusterConfig(num_nodes=4, slots_per_node=2, cache_mb_per_node=200.0)
LOSSY_RPC = RpcConfig(latency_s=0.2, jitter_s=0.3, loss_rate=0.05, seed=7)

#: Eight applications, six workloads, five schemes (prefetch-only MRD
#: among them) and unequal cache shares.
DENSE_APPS = (
    AppSpec(workload="KM", scheme="MRD", partitions=8),
    AppSpec(workload="PR", scheme="LRU", partitions=8, seed=1),
    AppSpec(workload="SVD++", scheme="MRD-prefetch", partitions=8),
    AppSpec(workload="CC", scheme="MRD", partitions=8, share=2.0),
    AppSpec(workload="LP", scheme="LRC", partitions=8),
    AppSpec(workload="SP", scheme="MRD-evict", partitions=8),
    AppSpec(workload="KM", scheme="LRU", partitions=8, seed=2, share=0.5),
    AppSpec(workload="PR", scheme="MRD-prefetch", partitions=8, seed=3, share=3.0),
)


def dense_mix(arbitration: str) -> MultiTenantSimulator:
    return MultiTenantSimulator(
        DENSE_APPS,
        CLUSTER,
        arrivals=PoissonArrivals(rate=2.0, seed=5),
        arbitration=arbitration,
        control_plane="rpc",
        control_config=LOSSY_RPC,
    )


PINNED_DENSE_DIGESTS = {
    "static": "7490c22dd6955904",
    "global-mrd": "764496a0bf88c201",
}


@pytest.mark.parametrize("case", sorted(PINNED_DENSE_DIGESTS))
def test_dense_mix_digest_is_pinned(case):
    result = dense_mix(case).run()
    assert len(result.apps) == len(DENSE_APPS)
    assert run_digest(result.apps, (), result.makespan) == PINNED_DENSE_DIGESTS[case]
