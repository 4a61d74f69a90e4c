"""Multi-tenant cluster mode: concurrent applications on one cluster.

Applications stream into a shared cluster under a seeded
:mod:`~repro.tenancy.arrivals` process; each keeps its own driver state
while the worker nodes' memory is shared, with an
:mod:`~repro.tenancy.arbitration` policy deciding which application
yields cache under pressure.  See ``docs/multitenancy.md``.
"""

from repro.tenancy.arbitration import (
    ARBITRATIONS,
    RDD_NAMESPACE_STRIDE,
    ArbitratedNodePolicy,
    ArbitrationPolicy,
    GlobalDistance,
    StaticShares,
    TenantStoreView,
    VictimCandidate,
    build_arbitration,
    namespace_of,
    owner_of,
)
from repro.tenancy.arrivals import ArrivalProcess, FixedArrivals, PoissonArrivals
from repro.tenancy.engine import AppSpec, MultiTenantSimulator, simulate_multi_tenant
from repro.tenancy.metrics import (
    MultiTenantMetrics,
    mt_metrics_from_dict,
    mt_metrics_to_dict,
    percentile,
)

__all__ = [
    "ARBITRATIONS",
    "AppSpec",
    "ArbitratedNodePolicy",
    "ArbitrationPolicy",
    "ArrivalProcess",
    "FixedArrivals",
    "GlobalDistance",
    "MultiTenantMetrics",
    "MultiTenantSimulator",
    "PoissonArrivals",
    "RDD_NAMESPACE_STRIDE",
    "StaticShares",
    "TenantStoreView",
    "VictimCandidate",
    "build_arbitration",
    "mt_metrics_from_dict",
    "mt_metrics_to_dict",
    "namespace_of",
    "owner_of",
    "percentile",
    "simulate_multi_tenant",
]
