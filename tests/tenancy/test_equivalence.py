"""One application through the tenancy layer == the standalone engine.

The multi-tenant engine's single-app guardrail: for every registered
workload under every registered policy, running one application through
:class:`MultiTenantSimulator` must produce byte-identical
:class:`RunMetrics` to the standalone ``simulate()`` — and since the
standalone engine's two scheduler cores are themselves equivalence-
tested, this pins the tenancy loop to both.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterConfig
from repro.control.plane import RpcConfig
from repro.experiments.harness import build_workload_dag, cache_mb_for
from repro.simulator.engine import simulate
from repro.sweep.schemes import SCHEME_SPECS
from repro.tenancy import AppSpec, MultiTenantSimulator
from repro.workloads.registry import workload_names
from tests.simulator.test_scheduler_equivalence import fingerprint

CLUSTER = ClusterConfig(num_nodes=4, slots_per_node=2, cache_mb_per_node=50.0)
PARTITIONS = 8


def run_single_app_mt(workload: str, scheme: str, cfg, **kwargs) -> tuple:
    mt = MultiTenantSimulator(
        [AppSpec(workload=workload, scheme=scheme, partitions=PARTITIONS)],
        cfg,
        **kwargs,
    ).run()
    assert len(mt.apps) == 1
    assert mt.apps[0].app_id == 0
    assert mt.apps[0].arrival_time == 0.0
    assert mt.makespan == mt.apps[0].jct
    return fingerprint(mt.apps[0])


@pytest.mark.parametrize("workload", workload_names())
@pytest.mark.parametrize("scheme", sorted(SCHEME_SPECS))
def test_single_app_matches_standalone_everywhere(workload, scheme):
    """Full cross product: every workload x every named scheme, under
    cache pressure (40% of the peak live set) so evictions, prefetches
    and purges actually fire inside the tenancy loop."""
    dag = build_workload_dag(workload, partitions=PARTITIONS)
    cfg = CLUSTER.with_cache(cache_mb_for(dag, 0.4, CLUSTER))
    standalone = fingerprint(
        simulate(dag, cfg, SCHEME_SPECS[scheme].build())
    )
    assert run_single_app_mt(workload, scheme, cfg) == standalone


@pytest.mark.parametrize("arbitration", ["static", "global-mrd"])
def test_single_app_identical_under_every_arbitration(arbitration):
    """With one tenant the arbitration policy must be unobservable —
    the composite node policy delegates verbatim."""
    dag = build_workload_dag("KM", partitions=PARTITIONS)
    cfg = CLUSTER.with_cache(cache_mb_for(dag, 0.4, CLUSTER))
    standalone = fingerprint(simulate(dag, cfg, SCHEME_SPECS["MRD"].build()))
    assert run_single_app_mt("KM", "MRD", cfg, arbitration=arbitration) == standalone


@pytest.mark.parametrize("scheme", ["LRU", "MRD", "MRD-prefetch"])
def test_single_app_matches_standalone_under_rpc(scheme):
    """Control-plane delays must interleave with the tenancy loop
    exactly as with the standalone event core."""
    dag = build_workload_dag("PR", partitions=PARTITIONS)
    cfg = CLUSTER.with_cache(cache_mb_for(dag, 0.4, CLUSTER))
    rpc = dict(control_plane="rpc", control_config=RpcConfig(latency_s=2.0))
    standalone = fingerprint(
        simulate(dag, cfg, SCHEME_SPECS[scheme].build(), **rpc)
    )
    assert run_single_app_mt("PR", scheme, cfg, **rpc) == standalone
