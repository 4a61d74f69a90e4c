"""Discrete-event Spark execution simulator."""

from repro.simulator.config import (
    CLUSTERS,
    DEFAULT_CACHE_MB,
    LRC_CLUSTER,
    MAIN_CLUSTER,
    MEMTUNE_CLUSTER,
    TEST_CLUSTER,
)
from repro.simulator.costmodel import CostModel
from repro.simulator.engine import SimulationError, SparkSimulator, simulate
from repro.simulator.failures import (
    ControlOutage,
    FailurePlan,
    NodeDecommission,
    NodeFailure,
    NodeJoin,
    build_churn_plan,
)
from repro.simulator.metrics import RunMetrics, StageRecord

__all__ = [
    "CLUSTERS",
    "ControlOutage",
    "CostModel",
    "DEFAULT_CACHE_MB",
    "FailurePlan",
    "LRC_CLUSTER",
    "MAIN_CLUSTER",
    "MEMTUNE_CLUSTER",
    "NodeDecommission",
    "NodeFailure",
    "NodeJoin",
    "RunMetrics",
    "SimulationError",
    "SparkSimulator",
    "StageRecord",
    "TEST_CLUSTER",
    "build_churn_plan",
    "simulate",
]
