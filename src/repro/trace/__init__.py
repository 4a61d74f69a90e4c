"""Trace subsystem: event-log ingestion, run recording, and replay.

Three capabilities around one event vocabulary (:mod:`~repro.trace.events`):

* **Ingest** real Spark event logs into simulator-ready application
  DAGs (:func:`ingest_eventlog`).
* **Record** simulator runs as structured cache-management traces
  (:class:`TraceRecorder`), exportable as JSONL or Chrome trace_event
  JSON for ``chrome://tracing`` / Perfetto.
* **Replay** either kind of trace under any cache scheme
  (:func:`replay`) and compare runs event-by-event (:func:`diff_traces`).
"""

from repro.trace.events import (
    BlockMigrate,
    CacheHit,
    CacheMiss,
    Eviction,
    JobStart,
    PrefetchCancel,
    PrefetchComplete,
    PrefetchIssue,
    Purge,
    StageEnd,
    StageStart,
    TraceEvent,
    TraceFormatError,
    WorkerDeregisterEvent,
    WorkerRegisterEvent,
    event_from_dict,
    read_jsonl,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.trace.recorder import NULL_RECORDER, NullRecorder, TraceRecorder
from repro.trace.spark_schema import EventLogError, UnsupportedEventError

#: Names resolved lazily (PEP 562): ingestion and replay import the
#: simulator stack, which itself imports :mod:`repro.trace.events` for
#: instrumentation — eager imports here would be circular.  The
#: :func:`~repro.trace.replay.replay` function itself is *not* re-exported:
#: it would collide with the ``repro.trace.replay`` submodule attribute
#: the import system installs on this package.
_LAZY = {
    "IngestedTrace": "repro.trace.eventlog",
    "ingest_eventlog": "repro.trace.eventlog",
    "profile_from_trace": "repro.trace.eventlog",
    "ReplayResult": "repro.trace.replay",
    "TraceDiff": "repro.trace.replay",
    "TraceWorkloadSpec": "repro.trace.replay",
    "detect_format": "repro.trace.replay",
    "diff_trace_files": "repro.trace.replay",
    "diff_traces": "repro.trace.replay",
    "replay_trace": "repro.trace.replay",
    "workload_from_eventlog": "repro.trace.replay",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)

__all__ = [
    "BlockMigrate",
    "CacheHit",
    "CacheMiss",
    "Eviction",
    "EventLogError",
    "IngestedTrace",
    "JobStart",
    "NULL_RECORDER",
    "NullRecorder",
    "PrefetchCancel",
    "PrefetchComplete",
    "PrefetchIssue",
    "Purge",
    "ReplayResult",
    "StageEnd",
    "StageStart",
    "TraceDiff",
    "TraceEvent",
    "TraceFormatError",
    "TraceRecorder",
    "TraceWorkloadSpec",
    "UnsupportedEventError",
    "WorkerDeregisterEvent",
    "WorkerRegisterEvent",
    "detect_format",
    "diff_trace_files",
    "diff_traces",
    "event_from_dict",
    "ingest_eventlog",
    "profile_from_trace",
    "read_jsonl",
    "replay_trace",
    "to_chrome_trace",
    "workload_from_eventlog",
    "write_chrome_trace",
    "write_jsonl",
]
