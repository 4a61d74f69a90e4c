"""Structural digest of a compiled :class:`ApplicationDAG`.

Covers everything a simulation reads from the DAG: jobs, every stage
(ids, order, pipelines, reads/writes, costs), the active-stage
sequence, and each cached RDD's reference profile.  The engine's
derived ``engine_plans`` cache is deliberately excluded.
"""

from __future__ import annotations

import hashlib
import json

from repro.dag.dag_builder import ApplicationDAG


def _ids(rdds) -> list[int]:
    return [r.id for r in rdds]


def dag_structure(dag: ApplicationDAG) -> dict:
    """JSON-ready structural form of ``dag`` (floats kept exact via repr)."""
    return {
        "jobs": [[j.id, list(j.stage_ids), list(j.active_stage_ids)] for j in dag.jobs],
        "stages": [
            [
                s.id, s.job_id, s.seq, s.rdd.id, _ids(s.pipeline),
                s.shuffle_dep.shuffle_id if s.shuffle_dep else None,
                list(s.parent_stage_ids), s.skipped, s.num_tasks,
                _ids(s.cache_reads), _ids(s.cache_writes),
                [d.shuffle_id for d in s.shuffle_reads], _ids(s.input_reads),
                repr(s.compute_cost_per_task),
            ]
            for s in dag.stages
        ],
        "active": [s.id for s in dag.active_stages],
        "profiles": [
            [
                rdd_id, p.rdd.num_partitions, repr(p.rdd.partition_size_mb),
                p.created_seq, p.created_job, p.created_stage_id,
                list(p.read_seqs), list(p.read_jobs), list(p.read_stage_ids),
                p.unpersist_after_job,
            ]
            for rdd_id, p in sorted(dag.profiles.items())
        ],
    }


def structural_digest(dag: ApplicationDAG) -> str:
    """SHA-256 (16 hex chars) of :func:`dag_structure`."""
    blob = json.dumps(dag_structure(dag), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
