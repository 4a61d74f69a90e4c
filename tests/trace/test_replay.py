"""Replay, diffing, and registry integration of ingested traces."""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.app_profiler import ProfileStore
from repro.core.policy import MrdScheme
from repro.dag.dag_builder import build_dag
from repro.experiments.harness import cache_mb_for
from repro.policies.scheme import LruScheme
from repro.simulator.config import TEST_CLUSTER
from repro.simulator.engine import simulate
from repro.sweep import CellSpec, SchemeSpec, execute_cell
from repro.sweep.schemes import resolve_scheme
from repro.trace.events import (
    _CHROME_CATEGORIES,
    EVENT_TYPES,
    CacheHit,
    CacheMiss,
    JobStart,
    TraceEvent,
    TraceFormatError,
)
from repro.trace.eventlog import ingest_eventlog, profile_from_trace
from repro.trace.recorder import TraceRecorder
from repro.trace.replay import (
    EVENT_GROUPS,
    GROUP_ORDER,
    TraceDiff,
    detect_format,
    diff_trace_files,
    diff_traces,
    replay,
    summarize_events,
    workload_from_eventlog,
)
from repro.workloads.registry import (
    _BY_NAME,
    build_workload,
    get_workload,
    register_workload,
    workload_names,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "eventlogs"
ITERATIVE = FIXTURES / "iterative_ml.jsonl"
LINEAR = FIXTURES / "linear_agg.jsonl"


# ----------------------------------------------------------------------
# format detection / scheme lookup
# ----------------------------------------------------------------------
def test_detect_eventlog():
    assert detect_format(ITERATIVE) == "eventlog"


def test_detect_recorded(tmp_path):
    path = tmp_path / "run.jsonl"
    TraceRecorder(meta={"workload": "KM"}).to_jsonl(path)
    assert detect_format(path) == "recorded"


def test_detect_rejects_garbage(tmp_path):
    path = tmp_path / "junk.jsonl"
    path.write_text('{"neither": true}\n')
    with pytest.raises(TraceFormatError):
        detect_format(path)


def test_detect_rejects_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(TraceFormatError, match="empty"):
        detect_format(path)


@pytest.mark.parametrize("name", ["lru", "LRU", "mrd", "MRD-evict", "belady"])
def test_build_scheme_case_insensitive(name):
    assert resolve_scheme(name).build().name


def test_build_scheme_unknown():
    with pytest.raises(ValueError, match="unknown scheme"):
        resolve_scheme("arc")


# ----------------------------------------------------------------------
# replaying event logs
# ----------------------------------------------------------------------
def test_replay_eventlog_under_lru_and_mrd():
    lru = replay(ITERATIVE, scheme="lru", cluster="test", cache_fraction=1.0)
    mrd = replay(ITERATIVE, scheme="mrd", cluster="test", cache_fraction=1.0)
    assert lru.source == mrd.source == "eventlog"
    assert lru.metrics.jct > 0 and mrd.metrics.jct > 0
    assert len(lru.events) > 0 and len(mrd.events) > 0
    # The cached training set is re-read by two later jobs: with the
    # full working set resident both policies serve them from memory.
    assert lru.metrics.stats.hits > 0
    assert mrd.metrics.stats.hits > 0


def test_identical_replays_have_zero_divergence():
    a = replay(LINEAR, scheme="mrd", cluster="test")
    b = replay(LINEAR, scheme="mrd", cluster="test")
    assert diff_traces(a.events, b.events) is None


def test_different_schemes_diverge():
    # A constrained cache makes the policies take different actions
    # (MRD prefetches/purges; LRU does neither).
    a = replay(LINEAR, scheme="lru", cluster="test", cache_fraction=0.5)
    b = replay(LINEAR, scheme="mrd", cluster="test", cache_fraction=0.5)
    diff = diff_traces(a.events, b.events)
    assert diff is not None
    assert "diverge at event" in diff.describe()


def test_replay_recorded_trace_rebuilds_workload(tmp_path):
    recorded = tmp_path / "km.jsonl"
    dag = build_dag(build_workload("KM", partitions=4))
    recorder = TraceRecorder(meta={
        "workload": "KM", "partitions": 4, "cluster": "test", "cache_mb": 64.0,
    })
    simulate(dag, TEST_CLUSTER.with_cache(64.0), MrdScheme(), recorder=recorder)
    recorder.to_jsonl(recorded)

    again = replay(recorded, scheme="mrd")
    assert again.source == "recorded"
    assert again.cache_mb_per_node == 64.0  # taken from the meta header
    assert diff_traces(recorder.events, again.events) is None


def test_replay_overrides_replace_fields_of_the_recorded_cell(tmp_path):
    recorded = tmp_path / "km.jsonl"
    cell = CellSpec(
        workload="KM", scheme_spec=SchemeSpec("MRD"), cluster="test",
        partitions=4, control_plane="rpc", control_latency=0.5,
    )
    recorder = TraceRecorder(meta={**cell.to_dict(), "source": "recorded"})
    execute_cell(cell, recorder=recorder)
    recorder.to_jsonl(recorded)

    again = replay(recorded, scheme="lru", cache_mb=30.0)
    meta = dict(again.recorder.meta)
    assert (meta.pop("source"), meta.pop("source_path")) == ("recorded", str(recorded))
    assert meta == replace(
        cell, scheme="LRU", scheme_spec=SchemeSpec("LRU"), cache_mb=30.0
    ).to_dict()
    assert again.scheme == "LRU"
    assert again.cache_mb_per_node == 30.0
    assert again.metrics.control_plane == "rpc"


def test_replay_rejects_a_header_that_is_not_a_cell(tmp_path):
    path = tmp_path / "old.jsonl"
    TraceRecorder(meta={"workload": "KM", "warp": 9}).to_jsonl(path)
    with pytest.raises(TraceFormatError, match="does not describe a run cell"):
        replay(path)


def test_replay_recorded_trace_without_workload_meta(tmp_path):
    path = tmp_path / "anon.jsonl"
    TraceRecorder().to_jsonl(path)
    # No meta at all -> not even a type:meta line; write one event so
    # detection sees a recorded trace.
    path.write_text('{"type": "job_start", "t": 0.0, "job_id": 0}\n')
    with pytest.raises(TraceFormatError, match="workload"):
        replay(path)


# ----------------------------------------------------------------------
# diffing
# ----------------------------------------------------------------------
def test_diff_length_mismatch():
    a = replay(LINEAR, scheme="lru", cluster="test")
    diff = diff_traces(a.events, a.events[:-1])
    assert diff is not None
    assert diff.index == len(a.events) - 1
    assert "ends early" in diff.describe()


def test_diff_trace_files(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    ra = replay(LINEAR, scheme="mrd", cluster="test")
    rb = replay(LINEAR, scheme="mrd", cluster="test")
    ra.recorder.to_jsonl(a)
    rb.recorder.to_jsonl(b)
    assert diff_trace_files(a, b) is None


# ----------------------------------------------------------------------
# traces as registry workloads + recurring-mode experiments
# ----------------------------------------------------------------------
def test_trace_workload_registers_and_builds():
    spec = workload_from_eventlog(ITERATIVE, name="ML-trace")
    try:
        register_workload(spec)
        assert "ML-trace" in workload_names()
        assert "ML-trace" in workload_names(suite="trace")
        assert get_workload("ML-trace") is spec
        app = build_workload("ML-trace")
        assert app.signature == "IterativeML"
        # Each build is isolated: fresh RDD objects every time.
        assert build_workload("ML-trace").rdds[0] is not app.rdds[0]
    finally:
        _BY_NAME.pop("ML-trace", None)


def test_register_rejects_builtin_collision():
    spec = workload_from_eventlog(ITERATIVE, name="KM")
    with pytest.raises(ValueError, match="built-in"):
        register_workload(spec)


def test_register_requires_replace_flag():
    spec = workload_from_eventlog(ITERATIVE, name="dup-trace")
    try:
        register_workload(spec)
        with pytest.raises(ValueError, match="already registered"):
            register_workload(spec)
        register_workload(spec, replace=True)  # explicit replace is fine
    finally:
        _BY_NAME.pop("dup-trace", None)


def test_fig9_style_recurring_sweep_from_ingested_profile(tmp_path):
    """A recurring MRD run can consume a profile derived from an event log.

    An ingested trace's profile is persisted to a store; a recurring-mode
    MRD scheme sharing that store then runs the ingested DAG at two cache
    fractions — the paper's recurring-application experiment with a real
    (well, fixture) event log as the source.  One pre-fed store serves
    both runs, which sweep cells (each with its own store) cannot do, so
    this calls ``simulate`` directly.
    """
    store = ProfileStore(tmp_path / "profiles.json")
    trace = ingest_eventlog(ITERATIVE)
    profile_from_trace(trace, store=store)

    runs = {
        fraction: simulate(
            trace.dag,
            TEST_CLUSTER.with_cache(cache_mb_for(trace.dag, fraction, TEST_CLUSTER)),
            MrdScheme(mode="recurring", profile_store=store),
        )
        for fraction in (0.5, 1.0)
    }
    for metrics in runs.values():
        assert metrics.jct > 0
    # With the whole working set cacheable the recurring profile keeps
    # the re-read training set resident.
    assert runs[1.0].hit_ratio == 1.0


def test_replay_profile_store_prefeeds_mrd():
    store = ProfileStore()
    result = replay(
        ITERATIVE, scheme="mrd", cluster="test", cache_fraction=1.0,
        profile_store=store,
    )
    stored = store.get("IterativeML")
    assert stored is not None and stored.complete
    assert result.metrics.stats.hits > 0


class TestEventSummary:
    def test_groups_cover_every_registered_kind(self):
        # Every event class in the library, however deeply derived, must
        # be in the wire-format registry, the summary pivot and the
        # Chrome category table; a kind missing from one of them would
        # fail to round-trip, raise in summarize_events or export as
        # "misc".  Classes defined by tests (Rogue below) are skipped.
        def library_subclasses(cls):
            for sub in cls.__subclasses__():
                if sub.__module__.startswith("repro."):
                    yield sub
                yield from library_subclasses(sub)

        kinds = {cls.kind for cls in library_subclasses(TraceEvent)}
        assert kinds == set(EVENT_TYPES)
        assert kinds == set(EVENT_GROUPS)
        assert kinds == set(_CHROME_CATEGORIES)
        assert set(EVENT_GROUPS.values()) == set(GROUP_ORDER)

    def test_summarize_counts_by_group_then_kind(self):
        events = [
            JobStart(t=0.0, job_id=0),
            CacheHit(t=1.0, rdd_id=0, partition=0, node_id=0),
            CacheHit(t=2.0, rdd_id=0, partition=1, node_id=0),
            CacheMiss(t=3.0, rdd_id=1, partition=2, node_id=1),
        ]
        summary = summarize_events(events)
        assert list(summary) == ["lifecycle", "cache"]  # GROUP_ORDER
        assert summary["cache"] == {"cache_hit": 2, "cache_miss": 1}
        assert summary["lifecycle"] == {"job_start": 1}

    def test_empty_stream_summarizes_empty(self):
        assert summarize_events([]) == {}

    def test_unknown_kind_raises_schema_drift(self):
        class Rogue(TraceEvent):
            kind = "rogue_kind"

        with pytest.raises(TraceFormatError, match="rogue_kind"):
            summarize_events([Rogue(t=0.0)])

    def test_recorded_run_summarizes_cleanly(self):
        from tests.conftest import make_iterative_app

        recorder = TraceRecorder()
        dag = build_dag(make_iterative_app(iterations=3))
        simulate(
            dag, TEST_CLUSTER.with_cache(48.0), LruScheme(), recorder=recorder
        )
        summary = summarize_events(recorder.events)
        total = sum(n for kinds in summary.values() for n in kinds.values())
        assert total == len(recorder.events) > 0
        assert "lifecycle" in summary and "cache" in summary
