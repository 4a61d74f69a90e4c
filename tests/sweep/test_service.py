"""Distributed sweep service: leases, worker loop, manifest, reclaim.

The headline guardrail lives here: N concurrent workers over one shared
store drain a grid with zero duplicated cell executions and produce a
ResultStore whose content digest is identical to a serial ``--jobs 1``
run.  The lease lifecycle (atomic claim, heartbeat refresh, stale-lease
expiry and single-winner reclaim) is exercised piecewise around it.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

import repro.sweep.service as service
from repro.sweep.runner import run_cell, run_cells
from repro.sweep.service import (
    LeaseManager,
    load_manifest,
    manifest_path,
    publish_manifest,
    read_workers,
    run_worker,
    write_worker_heartbeat,
)
from repro.sweep.spec import CellSpec, GridSpec
from repro.sweep.store import STATUS_ERROR, CellResult, ResultStore


def _cells(fractions=(0.3, 0.6), schemes=("LRU", "MRD")) -> list[CellSpec]:
    return GridSpec(
        workloads=["SP"], schemes=list(schemes),
        cache_fractions=list(fractions), clusters=["test"], partitions=8,
    ).cells()


def _backdate(path, seconds: float) -> None:
    old = time.time() - seconds
    os.utime(path, (old, old))


# ----------------------------------------------------------------------
# leases
# ----------------------------------------------------------------------
class TestLeaseManager:
    def test_acquire_is_exclusive(self, tmp_path):
        store = ResultStore(tmp_path)
        a = LeaseManager(store, "a")
        b = LeaseManager(store, "b")
        assert a.acquire("cell1")
        assert not b.acquire("cell1")
        info = b.inspect("cell1")
        assert info is not None and info.worker == "a"

    def test_release_frees_the_cell(self, tmp_path):
        store = ResultStore(tmp_path)
        a = LeaseManager(store, "a")
        assert a.acquire("cell1")
        a.release("cell1")
        assert LeaseManager(store, "b").acquire("cell1")

    def test_release_is_idempotent(self, tmp_path):
        leases = LeaseManager(ResultStore(tmp_path), "a")
        leases.release("never-held")  # no raise

    def test_stale_lease_is_reclaimed(self, tmp_path):
        store = ResultStore(tmp_path)
        a = LeaseManager(store, "a", ttl_s=5.0)
        assert a.acquire("cell1")
        _backdate(a.lease_path("cell1"), seconds=60.0)
        b = LeaseManager(store, "b", ttl_s=5.0)
        assert b.acquire("cell1")
        info = b.inspect("cell1")
        assert info is not None and info.worker == "b"

    def test_fresh_lease_is_not_reclaimed(self, tmp_path):
        store = ResultStore(tmp_path)
        a = LeaseManager(store, "a", ttl_s=3600.0)
        assert a.acquire("cell1")
        assert not LeaseManager(store, "b", ttl_s=3600.0).acquire("cell1")

    def test_heartbeat_refresh_keeps_a_lease_live(self, tmp_path):
        store = ResultStore(tmp_path)
        a = LeaseManager(store, "a", ttl_s=5.0)
        assert a.acquire("cell1")
        _backdate(a.lease_path("cell1"), seconds=60.0)
        assert a.refresh("cell1")  # heartbeat = mtime bump
        assert a.inspect("cell1").age_s < 5.0
        assert not LeaseManager(store, "b", ttl_s=5.0).acquire("cell1")

    def test_refresh_reports_vanished_lease(self, tmp_path):
        leases = LeaseManager(ResultStore(tmp_path), "a")
        assert not leases.refresh("never-held")

    def test_single_winner_when_many_reclaim_concurrently(self, tmp_path):
        store = ResultStore(tmp_path)
        first = LeaseManager(store, "crashed", ttl_s=1.0)
        assert first.acquire("cell1")
        _backdate(first.lease_path("cell1"), seconds=60.0)
        wins = []
        barrier = threading.Barrier(8)

        def contend(worker: str) -> None:
            leases = LeaseManager(store, worker, ttl_s=1.0)
            barrier.wait()
            if leases.acquire("cell1"):
                wins.append(worker)

        threads = [
            threading.Thread(target=contend, args=(f"w{i}",)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1

    def test_live_leases_sorted_and_skips_temp_files(self, tmp_path):
        store = ResultStore(tmp_path)
        leases = LeaseManager(store, "a")
        assert leases.acquire("bbb")
        assert leases.acquire("aaa")
        (leases.leases_dir / ".reclaim-zzz-w.tmp").write_text("{}")
        assert [info.fingerprint for info in leases.live_leases()] == ["aaa", "bbb"]

    def test_bad_ttl_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="ttl"):
            LeaseManager(ResultStore(tmp_path), "a", ttl_s=0.0)


# ----------------------------------------------------------------------
# manifest
# ----------------------------------------------------------------------
class TestManifest:
    def test_publish_load_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        cells = _cells()
        publish_manifest(store, cells)
        loaded = load_manifest(store)
        assert sorted(c.fingerprint() for c in cells) == [
            c.fingerprint() for c in loaded
        ]
        assert {c.fingerprint() for c in loaded} == {
            c.fingerprint() for c in cells
        }

    def test_publish_merges_rather_than_overwrites(self, tmp_path):
        store = ResultStore(tmp_path)
        first, second = _cells(fractions=(0.3,)), _cells(fractions=(0.6,))
        publish_manifest(store, first)
        publish_manifest(store, second)
        fingerprints = {c.fingerprint() for c in load_manifest(store)}
        assert fingerprints == {
            c.fingerprint() for c in first + second
        }

    def test_republish_is_byte_identical(self, tmp_path):
        store = ResultStore(tmp_path)
        cells = _cells()
        publish_manifest(store, cells)
        before = manifest_path(store).read_bytes()
        publish_manifest(store, cells)
        assert manifest_path(store).read_bytes() == before

    def test_missing_or_corrupt_manifest_is_empty(self, tmp_path):
        store = ResultStore(tmp_path)
        assert load_manifest(store) == []
        manifest_path(store).write_text("{nope")
        assert load_manifest(store) == []
        manifest_path(store).write_text(json.dumps({"version": 999, "cells": []}))
        assert load_manifest(store) == []


# ----------------------------------------------------------------------
# the worker loop
# ----------------------------------------------------------------------
class TestRunWorker:
    def test_single_worker_drains_the_grid(self, tmp_path):
        cells = _cells()
        store = ResultStore(tmp_path)
        summary = run_worker(store, cells, worker_id="w1", poll_s=0.01)
        assert summary.drained
        assert summary.executed == len(cells)
        assert summary.errors == 0
        assert len(store) == len(cells)

    def test_worker_store_is_bit_identical_to_serial(self, tmp_path):
        cells = _cells()
        serial_store = ResultStore(tmp_path / "serial")
        run_cells(cells, jobs=1, store=serial_store).raise_on_error()
        worker_store = ResultStore(tmp_path / "worker")
        run_worker(worker_store, cells, worker_id="w1", poll_s=0.01)
        assert worker_store.content_digest() == serial_store.content_digest()

    def test_worker_without_grid_fails_loudly(self, tmp_path):
        with pytest.raises(ValueError, match="no grid"):
            run_worker(ResultStore(tmp_path), None)

    def test_worker_reads_cells_from_manifest(self, tmp_path):
        store = ResultStore(tmp_path)
        publish_manifest(store, _cells(fractions=(0.4,), schemes=("LRU",)))
        summary = run_worker(store, None, worker_id="w1", poll_s=0.01)
        assert summary.drained and summary.executed == 1

    def test_two_concurrent_workers_no_duplicate_execution(
        self, tmp_path, monkeypatch
    ):
        """The distributed guardrail: concurrency adds no recomputation."""
        cells = _cells()
        serial_store = ResultStore(tmp_path / "serial")
        run_cells(cells, jobs=1, store=serial_store).raise_on_error()

        executed: list[str] = []
        lock = threading.Lock()

        def counting_run_cell(cell, profile_path=None, dags=None):
            with lock:
                executed.append(cell.fingerprint())
            return run_cell(cell, profile_path, dags)

        monkeypatch.setattr(service, "run_cell", counting_run_cell)
        store = ResultStore(tmp_path / "shared")
        publish_manifest(store, cells)
        summaries: dict[str, object] = {}

        def work(worker_id: str) -> None:
            summaries[worker_id] = run_worker(
                store, None, worker_id=worker_id, poll_s=0.01
            )

        threads = [
            threading.Thread(target=work, args=(f"w{i}",)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        # Zero duplicated executions, full coverage, identical bytes.
        assert sorted(executed) == sorted(c.fingerprint() for c in cells)
        assert all(s.drained for s in summaries.values())
        assert store.content_digest() == serial_store.content_digest()

    def test_crashed_worker_cells_are_reclaimed_and_completed(self, tmp_path):
        """A stale lease (dead heartbeat) must not strand its cell."""
        cells = _cells(fractions=(0.4,), schemes=("LRU",))
        store = ResultStore(tmp_path)
        publish_manifest(store, cells)
        # Simulate a crash: a lease exists, its heartbeat long dead, and
        # no result was ever committed.
        crashed = LeaseManager(store, "crashed", ttl_s=1.0)
        fingerprint = cells[0].fingerprint()
        assert crashed.acquire(fingerprint)
        _backdate(crashed.lease_path(fingerprint), seconds=60.0)

        summary = run_worker(
            store, None, worker_id="rescuer", lease_ttl_s=1.0, poll_s=0.01
        )
        assert summary.drained
        assert summary.executed == 1
        assert summary.reclaimed == 1
        result = store.get(fingerprint)
        assert result is not None and result.ok

    def test_live_lease_blocks_and_times_out(self, tmp_path):
        cells = _cells(fractions=(0.4,), schemes=("LRU",))
        store = ResultStore(tmp_path)
        publish_manifest(store, cells)
        holder = LeaseManager(store, "busy-elsewhere", ttl_s=3600.0)
        assert holder.acquire(cells[0].fingerprint())
        with pytest.raises(TimeoutError, match="leased elsewhere"):
            run_worker(
                store, None, worker_id="w1",
                lease_ttl_s=3600.0, poll_s=0.01, timeout_s=0.05,
            )

    def test_settled_cells_are_not_recomputed(self, tmp_path):
        cells = _cells()
        store = ResultStore(tmp_path)
        run_cells(cells, jobs=1, store=store).raise_on_error()
        summary = run_worker(store, cells, worker_id="w1", poll_s=0.01)
        assert summary.executed == 0
        assert summary.settled_elsewhere == len(cells)

    def test_preexisting_error_results_retry_once(self, tmp_path):
        cells = _cells(fractions=(0.4,), schemes=("LRU",))
        store = ResultStore(tmp_path)
        fingerprint = cells[0].fingerprint()
        store.put(CellResult(
            fingerprint=fingerprint,
            spec=cells[0].to_dict(),
            status=STATUS_ERROR,
            error={"type": "RuntimeError", "message": "killed", "traceback": ""},
        ))
        summary = run_worker(store, cells, worker_id="w1", poll_s=0.01)
        assert summary.executed == 1  # the error retried...
        result = store.get(fingerprint)
        assert result is not None and result.ok  # ...and settled cleanly

    def test_error_cell_settles_without_pingpong(self, tmp_path):
        bad = CellSpec(workload="SP", cluster="test", scale=-1.0, partitions=8)
        store = ResultStore(tmp_path)
        summary = run_worker(store, [bad], worker_id="w1", poll_s=0.01)
        assert summary.drained
        assert summary.executed == 1 and summary.errors == 1
        # A second worker session sees the error as pre-existing and
        # retries exactly once more — deterministic failure, same result.
        again = run_worker(store, [bad], worker_id="w2", poll_s=0.01)
        assert again.drained and again.executed == 1 and again.errors == 1

    def test_max_cells_stops_early(self, tmp_path):
        cells = _cells()
        store = ResultStore(tmp_path)
        summary = run_worker(
            store, cells, worker_id="w1", max_cells=1, poll_s=0.01
        )
        assert summary.executed == 1
        assert not summary.drained

    def test_recompute_purges_stale_profile_directory(self, tmp_path):
        """Reclaimed/retried cells must start from a cold profile."""
        cell = CellSpec(
            workload="SP", cluster="test", cache_fraction=0.4,
            partitions=8, profile_store=True,
        )
        store = ResultStore(tmp_path)
        fingerprint = cell.fingerprint()
        sentinel = store.profiles_dir / fingerprint / "stale-marker"
        sentinel.parent.mkdir(parents=True)
        sentinel.write_text("left behind by a crashed run")
        store.put(CellResult(
            fingerprint=fingerprint,
            spec=cell.to_dict(),
            status=STATUS_ERROR,
            error={"type": "RuntimeError", "message": "crash", "traceback": ""},
        ))
        run_worker(store, [cell], worker_id="w1", poll_s=0.01)
        assert not sentinel.exists()
        assert store.get(fingerprint).ok


# ----------------------------------------------------------------------
# worker registry
# ----------------------------------------------------------------------
class TestWorkerRegistry:
    def test_heartbeat_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        write_worker_heartbeat(store, "w1", executed=3, errors=1, current="abc")
        write_worker_heartbeat(store, "w0")
        entries = read_workers(store)
        assert [e["worker"] for e in entries] == ["w0", "w1"]
        assert entries[1]["executed"] == 3 and entries[1]["current"] == "abc"
        assert all(e["age_s"] >= 0 for e in entries)

    def test_worker_loop_registers_itself(self, tmp_path):
        store = ResultStore(tmp_path)
        run_worker(
            store, _cells(fractions=(0.4,), schemes=("LRU",)),
            worker_id="w1", poll_s=0.01,
        )
        entries = read_workers(store)
        assert len(entries) == 1
        assert entries[0]["worker"] == "w1"
        assert entries[0]["executed"] == 1

    def test_corrupt_registry_entries_skipped(self, tmp_path):
        store = ResultStore(tmp_path)
        write_worker_heartbeat(store, "w1")
        (service.workers_dir(store) / "bad.json").write_text("{nope")
        assert [e["worker"] for e in read_workers(store)] == ["w1"]


# ----------------------------------------------------------------------
# the coordinator half (run_cells external=True)
# ----------------------------------------------------------------------
class TestExternalCoordinator:
    def test_external_requires_store(self):
        with pytest.raises(ValueError, match="store"):
            run_cells(_cells(), external=True)

    def test_external_rejects_no_resume(self, tmp_path):
        with pytest.raises(ValueError, match="resume"):
            run_cells(_cells(), store=tmp_path, external=True, resume=False)

    def test_external_times_out_without_workers(self, tmp_path):
        with pytest.raises(TimeoutError, match="external workers"):
            run_cells(
                _cells(), store=tmp_path, external=True,
                poll_s=0.01, timeout_s=0.05,
            )

    def test_external_coordinator_with_worker_matches_serial(self, tmp_path):
        cells = _cells()
        serial_store = ResultStore(tmp_path / "serial")
        serial = run_cells(cells, jobs=1, store=serial_store)

        store = ResultStore(tmp_path / "shared")
        outcome_box: dict[str, object] = {}

        def coordinate() -> None:
            outcome_box["outcome"] = run_cells(
                cells, store=store, external=True, poll_s=0.01, timeout_s=60.0,
            )

        coordinator = threading.Thread(target=coordinate)
        coordinator.start()
        # The coordinator publishes the manifest; the worker reads it.
        deadline = time.monotonic() + 30.0
        while not load_manifest(store) and time.monotonic() < deadline:
            time.sleep(0.01)
        run_worker(store, None, worker_id="w1", poll_s=0.01)
        coordinator.join(timeout=30.0)
        assert not coordinator.is_alive()

        outcome = outcome_box["outcome"]
        assert [r.metrics for r in outcome.results] == [
            r.metrics for r in serial.results
        ]
        assert store.content_digest() == serial_store.content_digest()

    def test_external_serves_already_settled_cells_as_cached(self, tmp_path):
        cells = _cells()
        store = ResultStore(tmp_path)
        run_cells(cells, jobs=1, store=store).raise_on_error()
        outcome = run_cells(
            cells, store=store, external=True, poll_s=0.01, timeout_s=5.0,
        )
        assert outcome.cached == len(cells)


class TestPublishGuard:
    """Regression tests for the IO203 fix: publish_manifest's
    read-merge-write runs under an os.mkdir guard, so concurrent
    publishers cannot drop each other's cells."""

    def test_concurrent_publishers_lose_no_cells(self, tmp_path):
        store = ResultStore(tmp_path)
        grids = [
            _cells(fractions=(round(0.1 * (i + 1), 2),), schemes=("LRU",))
            for i in range(6)
        ]
        errors: list[BaseException] = []

        def publish(cells):
            try:
                publish_manifest(store, cells)
            except BaseException as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        threads = [
            threading.Thread(target=publish, args=(grid,)) for grid in grids
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        published = {cell.fingerprint() for cell in load_manifest(store)}
        expected = {cell.fingerprint() for grid in grids for cell in grid}
        assert published == expected  # every merge survived

    def test_guard_is_released_after_publish(self, tmp_path):
        store = ResultStore(tmp_path)
        publish_manifest(store, _cells())
        assert not (store.root / ".grid.lock").exists()

    def test_stale_guard_from_a_crashed_publisher_is_retired(self, tmp_path):
        store = ResultStore(tmp_path)
        store.root.mkdir(parents=True, exist_ok=True)
        guard = store.root / ".grid.lock"
        guard.mkdir()
        _backdate(guard, service.DEFAULT_LEASE_TTL_S + 10)
        publish_manifest(store, _cells())  # must not deadlock
        assert len(load_manifest(store)) == 4
        assert not guard.exists()

    def test_fresh_guard_blocks_until_released(self, tmp_path):
        store = ResultStore(tmp_path)
        store.root.mkdir(parents=True, exist_ok=True)
        guard = store.root / ".grid.lock"
        guard.mkdir()
        done = threading.Event()

        def publish():
            publish_manifest(store, _cells())
            done.set()

        thread = threading.Thread(target=publish)
        thread.start()
        try:
            assert not done.wait(0.3)  # held guard really blocks
            os.rmdir(guard)
            assert done.wait(5.0)
        finally:
            thread.join(5.0)
        assert len(load_manifest(store)) == 4
