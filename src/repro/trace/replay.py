"""Trace replay: run ingested or recorded traces under any cache scheme.

Three entry points:

* :func:`replay` — take a trace file (a Spark event log *or* a JSONL
  trace recorded by :class:`~repro.trace.recorder.TraceRecorder`),
  reconstruct the application it describes, and simulate it under a
  chosen scheme while recording a fresh trace.  Replaying the same file
  under two schemes is how policies are compared on real applications.
* :func:`diff_traces` — first divergence between two recorded traces.
  Replays are deterministic, so two runs of the same (file, scheme,
  cache) must produce byte-identical event streams; a non-empty diff
  localizes the first simulator tick where behaviour differed.
* :class:`TraceWorkloadSpec` — wraps an event log as a registry
  workload, so experiments and the harness treat a real application's
  trace exactly like a synthetic SparkBench program.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from repro.core.app_profiler import ProfileStore
from repro.simulator.config import CLUSTERS, ClusterConfig
from repro.simulator.engine import simulate
from repro.simulator.metrics import RunMetrics
from repro.sweep.runner import execute_cell
from repro.sweep.schemes import SchemeLike, resolve_scheme
from repro.sweep.spec import CellSpec, check_cache_size, validate_cells
from repro.trace.eventlog import IngestedTrace, ingest_eventlog, profile_from_trace
from repro.trace.events import TraceEvent, TraceFormatError, read_jsonl
from repro.trace.recorder import TraceRecorder
from repro.workloads.base import WorkloadParams, WorkloadSpec


def detect_format(path: str | Path) -> str:
    """``"eventlog"`` (Spark listener JSON) or ``"recorded"`` (our JSONL)."""
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(
                    f"{path}: first line is not JSON ({exc.msg})"
                ) from None
            if isinstance(record, dict) and "Event" in record:
                return "eventlog"
            if isinstance(record, dict) and "type" in record:
                return "recorded"
            raise TraceFormatError(
                f"{path}: neither a Spark event log (no 'Event' field) nor "
                "a recorded trace (no 'type' field)"
            )
    raise TraceFormatError(f"{path}: file is empty")


@dataclass
class ReplayResult:
    """Outcome of one :func:`replay` call."""

    source: str  # "eventlog" | "recorded"
    scheme: str
    cache_mb_per_node: float
    metrics: RunMetrics
    recorder: TraceRecorder
    #: Present when the source was a Spark event log.
    ingested: IngestedTrace | None = None

    @property
    def events(self) -> list[TraceEvent]:
        return self.recorder.events


def _cluster_config(name: str) -> ClusterConfig:
    try:
        return CLUSTERS[name]
    except KeyError:
        raise ValueError(
            f"unknown cluster {name!r}; choose from {sorted(CLUSTERS)}"
        ) from None


def replay(
    path: str | Path,
    scheme: SchemeLike | None = None,
    cluster: str | None = None,
    cache_mb: float | None = None,
    cache_fraction: float | None = None,
    profile_store: ProfileStore | None = None,
) -> ReplayResult:
    """Reconstruct the application behind ``path`` and simulate it.

    ``path`` may be a Spark event log (ingested via
    :func:`~repro.trace.eventlog.ingest_eventlog`) or a JSONL trace
    previously recorded by ``repro trace record``.  A recorded trace's
    meta header is the :class:`~repro.sweep.spec.CellSpec` of the run
    that wrote it; replay rebuilds that cell, replaces its scheme,
    cluster and cache size by any of ``scheme``, ``cluster``,
    ``cache_fraction`` and ``cache_mb`` given (``cache_mb`` wins over
    ``cache_fraction``), and runs it through
    :func:`~repro.sweep.runner.execute_cell`, so a bare replay reruns
    the recorded run exactly, control plane included.  An event log runs
    under ``scheme`` (default LRU) on ``cluster`` (default ``main``) at
    ``cache_mb`` or ``cache_fraction`` (default 0.5) of its peak live
    cached set.  The run is always recorded; the fresh trace is in
    ``result.recorder``.

    When ``profile_store`` is given and the source is an event log, a
    complete reference-distance profile is derived from the ingested
    DAG and put into the store *before* the run — an ``MrdScheme`` in
    recurring mode sharing that store then starts fully informed, the
    paper's recurring-application scenario.
    """
    source = detect_format(path)
    if source == "recorded":
        return _replay_recorded(
            path, scheme, cluster, cache_mb, cache_fraction, profile_store
        )

    from repro.experiments.harness import cache_mb_for

    check_cache_size(cache_fraction, cache_mb)
    ingested = ingest_eventlog(path)
    built = resolve_scheme(scheme or "lru").build(profile_store=profile_store)
    if profile_store is not None:
        profile_from_trace(ingested, store=profile_store)
    config = _cluster_config(cluster or "main")
    if cache_mb is None:
        fraction = 0.5 if cache_fraction is None else cache_fraction
        cache_mb = cache_mb_for(ingested.dag, fraction, config)
    recorder = TraceRecorder(meta={
        "workload": ingested.app_name,
        "scheme": built.name,
        "cluster": config.name,
        "cache_mb": cache_mb,
        "source": source,
        "source_path": str(path),
    })
    metrics = simulate(
        ingested.dag, config.with_cache(cache_mb), built, recorder=recorder
    )
    return ReplayResult(
        source=source,
        scheme=built.name,
        cache_mb_per_node=cache_mb,
        metrics=metrics,
        recorder=recorder,
        ingested=ingested,
    )


def _replay_recorded(
    path: str | Path,
    scheme: SchemeLike | None,
    cluster: str | None,
    cache_mb: float | None,
    cache_fraction: float | None,
    profile_store: ProfileStore | None,
) -> ReplayResult:
    """Rerun the cell in a recorded trace's meta header, with overrides."""
    meta, _ = read_jsonl(path)
    if not meta.get("workload"):
        raise TraceFormatError(
            f"{path}: recorded trace has no 'workload' meta field; "
            "cannot rebuild the application it came from"
        )
    fields = {k: v for k, v in meta.items() if k not in ("source", "source_path")}
    try:
        cell = CellSpec.from_dict(fields)
    except (TypeError, ValueError) as exc:
        raise TraceFormatError(
            f"{path}: meta header does not describe a run cell ({exc})"
        ) from None
    overrides: dict = {}
    if scheme is not None:
        spec = resolve_scheme(scheme)
        overrides.update(scheme=spec.name, scheme_spec=spec)
    if cluster is not None:
        overrides["cluster"] = cluster
    if cache_fraction is not None:
        overrides.update(cache_fraction=cache_fraction, cache_mb=None)
    if cache_mb is not None:
        overrides["cache_mb"] = cache_mb
    cell = replace(cell, **overrides)
    validate_cells([cell])
    recorder = TraceRecorder(meta={
        **cell.to_dict(), "source": "recorded", "source_path": str(path),
    })
    metrics = execute_cell(cell, profile_store, recorder=recorder)
    return ReplayResult(
        source="recorded",
        scheme=cell.scheme,
        cache_mb_per_node=metrics.cache_mb_per_node,
        metrics=metrics,
        recorder=recorder,
    )


#: Package-level alias (``repro.trace.replay_trace``): the bare name
#: ``replay`` on the package is taken by this submodule itself.
replay_trace = replay


# ----------------------------------------------------------------------
# event summaries
# ----------------------------------------------------------------------
#: Every declared event kind, pivoted into the display group the CLI
#: summary reports under.  This table is a *complete* mirror of the
#: ``TraceEvent`` hierarchy: adding an event kind without extending this
#: dict (or keeping a key whose class was removed) fails
#: ``tests/trace/test_replay.py``'s registry test.
EVENT_GROUPS: dict[str, str] = {
    "job_start": "lifecycle",
    "stage_start": "lifecycle",
    "stage_end": "lifecycle",
    "cache_hit": "cache",
    "cache_miss": "cache",
    "eviction": "cache",
    "purge": "cache",
    "prefetch_issue": "prefetch",
    "prefetch_complete": "prefetch",
    "prefetch_cancel": "prefetch",
    "worker_register": "cluster",
    "worker_deregister": "cluster",
    "block_migrate": "cluster",
    "msg_send": "control",
    "msg_deliver": "control",
    "msg_drop": "control",
}

#: Group display order for :func:`summarize_events` consumers.
GROUP_ORDER = ("lifecycle", "cache", "prefetch", "cluster", "control")


def summarize_events(events: list[TraceEvent]) -> dict[str, dict[str, int]]:
    """Per-group, per-kind event counts (only groups/kinds that occur).

    The pivot the ``repro trace record/replay`` summary prints: group →
    kind → count, groups in :data:`GROUP_ORDER`, kinds sorted within
    each group.  An event whose kind is missing from
    :data:`EVENT_GROUPS` raises — that is schema drift, which the
    event-registry test should have caught before any trace got this far.
    """
    counts: dict[str, dict[str, int]] = {}
    for event in events:
        try:
            group = EVENT_GROUPS[event.kind]
        except KeyError:
            raise TraceFormatError(
                f"event kind {event.kind!r} is missing from "
                "repro.trace.replay.EVENT_GROUPS (schema drift)"
            ) from None
        kinds = counts.setdefault(group, {})
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
    return {
        group: dict(sorted(counts[group].items()))
        for group in GROUP_ORDER if group in counts
    }


# ----------------------------------------------------------------------
# trace diffing
# ----------------------------------------------------------------------
@dataclass
class TraceDiff:
    """First divergence between two event streams."""

    index: int
    left: dict | None
    right: dict | None
    len_left: int
    len_right: int

    def describe(self) -> str:
        if self.left is None or self.right is None:
            shorter = "left" if self.left is None else "right"
            return (
                f"traces diverge at event {self.index}: {shorter} trace ends "
                f"early ({self.len_left} vs {self.len_right} events)"
            )
        return (
            f"traces diverge at event {self.index}:\n"
            f"  left:  {json.dumps(self.left, sort_keys=True)}\n"
            f"  right: {json.dumps(self.right, sort_keys=True)}"
        )


def diff_traces(
    left: list[TraceEvent], right: list[TraceEvent]
) -> TraceDiff | None:
    """First event where two traces differ, or ``None`` if identical."""
    for i, (a, b) in enumerate(zip(left, right)):
        da, db = a.to_dict(), b.to_dict()
        if da != db:
            return TraceDiff(
                index=i, left=da, right=db,
                len_left=len(left), len_right=len(right),
            )
    if len(left) != len(right):
        i = min(len(left), len(right))
        return TraceDiff(
            index=i,
            left=left[i].to_dict() if i < len(left) else None,
            right=right[i].to_dict() if i < len(right) else None,
            len_left=len(left), len_right=len(right),
        )
    return None


def diff_trace_files(
    left: str | Path, right: str | Path
) -> TraceDiff | None:
    """File-level :func:`diff_traces` (reads both JSONL traces)."""
    _, a = read_jsonl(left)
    _, b = read_jsonl(right)
    return diff_traces(a, b)


# ----------------------------------------------------------------------
# event logs as registry workloads
# ----------------------------------------------------------------------
def _no_builder(ctx, params) -> None:  # pragma: no cover - never called
    raise RuntimeError("TraceWorkloadSpec builds from its event log")


@dataclass(frozen=True)
class TraceWorkloadSpec(WorkloadSpec):
    """A Spark event log exposed as an ordinary registry workload.

    ``build()`` re-ingests the log every time, so each simulation gets a
    fresh, isolated RDD graph — exactly like synthetic builders that
    re-record their program.  ``WorkloadParams`` are accepted but do not
    reshape the trace (a recorded application has one fixed shape); the
    spec reports ``iterations_effective=False`` accordingly.
    """

    eventlog_path: str = ""

    def build(self, params: WorkloadParams | None = None, first_rdd_id: int = 0):
        if not self.eventlog_path:
            raise ValueError("TraceWorkloadSpec requires eventlog_path")
        return ingest_eventlog(self.eventlog_path, first_rdd_id=first_rdd_id).application


def workload_from_eventlog(
    path: str | Path, name: str | None = None
) -> TraceWorkloadSpec:
    """Ingest ``path`` once and wrap it as a registerable workload spec."""
    trace = ingest_eventlog(path)
    return TraceWorkloadSpec(
        name=name or trace.app_name,
        full_name=f"trace of {trace.app_name}",
        suite="trace",
        category="Ingested trace",
        job_type="Recorded",
        input_mb=sum(r.size_mb for r in trace.application.rdds if r.is_input),
        default_iterations=1,
        builder=_no_builder,
        iterations_effective=False,
        eventlog_path=str(path),
    )
