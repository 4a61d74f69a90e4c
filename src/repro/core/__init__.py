"""MRD — the paper's core contribution: reference-distance cache management."""

from repro.core.app_profiler import AppProfiler, ApplicationProfile, ProfileStore
from repro.core.cache_monitor import CacheMonitor
from repro.core.manager import MrdConfig, MrdManager, StagePlan
from repro.core.mrd_table import INFINITE, MrdTable
from repro.core.policy import MrdScheme
from repro.core.reference_distance import (
    Reference,
    cached_rdds_created_in_job,
    parse_application_references,
    parse_job_references,
)

__all__ = [
    "AppProfiler",
    "ApplicationProfile",
    "CacheMonitor",
    "INFINITE",
    "MrdConfig",
    "MrdManager",
    "MrdScheme",
    "MrdTable",
    "ProfileStore",
    "Reference",
    "StagePlan",
    "cached_rdds_created_in_job",
    "parse_application_references",
    "parse_job_references",
]
