"""Distributed sweep service: lease-based cell claiming over a shared store.

One :class:`~repro.sweep.store.ResultStore` directory — local disk or a
network filesystem — becomes a work queue that any number of worker
processes on any number of machines drain concurrently:

* **Manifest** (``grid.json``) — the cell list, published atomically by
  whichever coordinator or worker knows the grid, so late-joining
  workers and the dashboard need no CLI flags beyond ``--store``.
* **Leases** (``leases/<fingerprint>.json``) — a worker claims a cell
  by creating its lease file with ``O_CREAT | O_EXCL`` (atomic on POSIX
  filesystems, including NFS for *create*), heartbeats it by refreshing
  the file's mtime while the cell runs, and releases it after
  committing the result.  A lease whose mtime is older than the TTL is
  *stale* — its worker crashed or lost the filesystem — and any worker
  may reclaim it: rename the stale file to a private name (only one
  renamer can win; rename of a vanished source fails), delete it, and
  claim fresh.
* **Settlement** — the store's atomic ``cells/<fingerprint>.json``
  commit remains the single settlement point.  Workers re-check the
  store *after* acquiring a lease and never recompute a settled cell,
  so a reclaim that raced an about-to-commit worker costs at most one
  redundant execution of a deterministic cell — identical bytes, never
  a conflicting result.
* **Worker registry** (``workers/<worker-id>.json``) — per-worker
  heartbeat files carrying progress counters; their mtime age is the
  liveness signal the dashboard (:mod:`repro.sweep.dashboard`) shows.

:func:`run_worker` is the lease-loop behind ``repro sweep --worker``;
``run_cells(..., external=True)`` is the matching coordinator half.
The guardrail (``tests/sweep/test_service.py``): N concurrent workers
over one shared store produce a ResultStore whose
:meth:`~repro.sweep.store.ResultStore.content_digest` is identical to
a serial ``--jobs 1`` run, with zero duplicated cell executions.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import socket
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.sweep.runner import DagMemo, run_cell
from repro.sweep.spec import CellSpec
from repro.sweep.store import CellResult, ResultStore, atomic_write_text

logger = logging.getLogger(__name__)

#: Bump when the manifest layout changes (stale manifests are rejected).
MANIFEST_VERSION = 1

#: A lease whose mtime is older than this is presumed crashed.
DEFAULT_LEASE_TTL_S = 60.0

#: How often a busy worker refreshes its lease + registry mtimes.
DEFAULT_HEARTBEAT_S = 5.0

#: How long an idle worker sleeps before re-scanning for claimable cells.
DEFAULT_POLL_S = 0.5


def default_worker_id() -> str:
    """``<hostname>-<pid>``: unique across the fleet, stable per process."""
    host = socket.gethostname() or "worker"
    safe = "".join(c if (c.isalnum() or c in "-_.") else "-" for c in host)
    return f"{safe}-{os.getpid()}"


def _atomic_write_json(path: Path, payload: dict) -> None:
    """Whole-file-or-nothing JSON write (same discipline as the store)."""
    atomic_write_text(path, json.dumps(payload, sort_keys=True))


def _acquire_guard(guard: Path, ttl_s: float, poll_s: float = 0.05) -> None:
    """Take an ``os.mkdir`` mutual-exclusion lock, expiring stale holders.

    ``mkdir`` is atomic on POSIX filesystems (NFS included), so exactly
    one contender wins each round; a guard directory older than
    ``ttl_s`` belonged to a crashed process and is retired, same as a
    stale lease.
    """
    while True:
        try:
            os.mkdir(guard)
            return
        except FileExistsError:
            with contextlib.suppress(OSError):
                if time.time() - guard.stat().st_mtime > ttl_s:
                    os.rmdir(guard)
                    continue
            time.sleep(poll_s)


# ----------------------------------------------------------------------
# manifest
# ----------------------------------------------------------------------
def manifest_path(store: ResultStore) -> Path:
    return store.root / "grid.json"


def publish_manifest(store: ResultStore, cells: Sequence[CellSpec]) -> Path:
    """Merge ``cells`` into the store's ``grid.json`` (atomic, idempotent).

    Merging (rather than overwriting) lets several coordinators point
    different grids at one store; cells are keyed and sorted by
    fingerprint so republishing an unchanged grid is a byte-identical
    rewrite.  The read-merge-write runs under an ``os.mkdir`` guard
    (IO203): two coordinators publishing different grids concurrently
    would otherwise each read the old manifest and the second
    ``os.replace`` would silently drop the first's cells.
    """
    path = manifest_path(store)
    store.root.mkdir(parents=True, exist_ok=True)
    guard = store.root / ".grid.lock"
    _acquire_guard(guard, DEFAULT_LEASE_TTL_S)
    try:
        by_fingerprint: dict[str, dict] = {
            cell.fingerprint(): cell.to_dict() for cell in load_manifest(store)
        }
        for cell in cells:
            by_fingerprint[cell.fingerprint()] = cell.to_dict()
        payload = {
            "version": MANIFEST_VERSION,
            "cells": [by_fingerprint[fp] for fp in sorted(by_fingerprint)],
        }
        _atomic_write_json(path, payload)
    finally:
        with contextlib.suppress(OSError):
            os.rmdir(guard)
    return path


def load_manifest(store: ResultStore) -> list[CellSpec]:
    """Cells published into the store, fingerprint-sorted ([] when none)."""
    path = manifest_path(store)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        return []
    except (OSError, ValueError) as exc:
        logger.warning("ignoring unreadable manifest %s (%s)", path, exc)
        return []
    if not isinstance(data, dict) or data.get("version") != MANIFEST_VERSION:
        logger.warning("ignoring manifest %s with unknown version", path)
        return []
    try:
        return [CellSpec.from_dict(spec) for spec in data.get("cells", [])]
    except (TypeError, ValueError, KeyError) as exc:
        logger.warning("ignoring malformed manifest %s (%s)", path, exc)
        return []


# ----------------------------------------------------------------------
# leases
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LeaseInfo:
    """One live (or stale) lease file, as observed on disk."""

    fingerprint: str
    worker: str
    #: Seconds since the last heartbeat (mtime age at observation time).
    age_s: float

    def stale(self, ttl_s: float) -> bool:
        return self.age_s > ttl_s


class LeaseManager:
    """Fingerprint-keyed lease files under ``<store>/leases/``.

    Claiming is an atomic ``O_CREAT | O_EXCL`` create; liveness is the
    file's mtime, refreshed by :meth:`refresh` while the cell runs;
    expiry is mtime age beyond ``ttl_s``; reclaim is an atomic rename
    (exactly one contender's rename of the stale file can succeed).
    """

    def __init__(
        self,
        store: ResultStore,
        worker_id: str,
        ttl_s: float = DEFAULT_LEASE_TTL_S,
    ) -> None:
        if ttl_s <= 0:
            raise ValueError(f"lease ttl must be positive, got {ttl_s}")
        self.store = store
        self.worker_id = worker_id
        self.ttl_s = ttl_s
        self.leases_dir = store.root / "leases"

    def lease_path(self, fingerprint: str) -> Path:
        return self.leases_dir / f"{fingerprint}.json"

    # ------------------------------------------------------------------
    def acquire(self, fingerprint: str) -> bool:
        """Try to claim one cell; reclaim its lease first if stale."""
        self.leases_dir.mkdir(parents=True, exist_ok=True)
        path = self.lease_path(fingerprint)
        if self._try_create(path, fingerprint):
            return True
        info = self.inspect(fingerprint)
        if info is None:
            # Raced a release/reclaim; one fresh attempt.
            return self._try_create(path, fingerprint)
        if not info.stale(self.ttl_s):
            return False
        if not self._reclaim(path, fingerprint, info):
            return False
        return self._try_create(path, fingerprint)

    def _try_create(self, path: Path, fingerprint: str) -> bool:
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(
                {"fingerprint": fingerprint, "worker": self.worker_id},
                sort_keys=True,
            ))
        return True

    def _reclaim(self, path: Path, fingerprint: str, info: LeaseInfo) -> bool:
        """Retire a stale lease (one winner across the fleet).

        Reclaims are serialized per cell through an atomic ``mkdir``
        guard, and staleness is re-checked *under* the guard.  Without
        it there is a race: contender A observes the stale mtime, the
        reclaim winner deletes the file and claims fresh, and A's
        rename then steals the brand-new lease — two claimants.  While
        the guard is held the lease file keeps existing (rename happens
        last), so no contender can slip a fresh create underneath the
        re-check.
        """
        guard = self.leases_dir / f".reclaim-{fingerprint}.lock"
        try:
            os.mkdir(guard)
        except FileExistsError:
            # Another worker is mid-reclaim.  If *it* crashed in this
            # tiny window, expire its guard like any other lease.
            with contextlib.suppress(OSError):
                if time.time() - guard.stat().st_mtime > self.ttl_s:
                    os.rmdir(guard)
            return False
        except OSError:
            return False
        try:
            current = self.inspect(fingerprint)
            if current is None or not current.stale(self.ttl_s):
                return False  # released or re-claimed while we raced here
            tomb = self.leases_dir / f".reclaim-{fingerprint}-{self.worker_id}.tmp"
            try:
                os.rename(path, tomb)
            except OSError:
                return False
            with contextlib.suppress(OSError):
                os.unlink(tomb)
            logger.warning(
                "reclaimed stale lease on %s held by %s (%.1fs since heartbeat)",
                fingerprint, current.worker, current.age_s,
            )
            return True
        finally:
            with contextlib.suppress(OSError):
                os.rmdir(guard)

    # ------------------------------------------------------------------
    def refresh(self, fingerprint: str) -> bool:
        """Heartbeat: bump the lease mtime.  False when the lease vanished."""
        try:
            os.utime(self.lease_path(fingerprint))
        except OSError:
            return False
        return True

    def release(self, fingerprint: str) -> None:
        with contextlib.suppress(FileNotFoundError, OSError):
            self.lease_path(fingerprint).unlink()

    # ------------------------------------------------------------------
    def inspect(self, fingerprint: str) -> LeaseInfo | None:
        """The lease on one cell as observed on disk, or ``None``."""
        path = self.lease_path(fingerprint)
        try:
            # One fd for both stat and content: a rename-and-recreate
            # racing this read must not pair an old mtime with new data.
            with open(path) as fh:
                stat = os.fstat(fh.fileno())
                data = json.load(fh)
        except (OSError, ValueError):
            return None
        return LeaseInfo(
            fingerprint=fingerprint,
            worker=str(data.get("worker", "?")) if isinstance(data, dict) else "?",
            age_s=max(time.time() - stat.st_mtime, 0.0),
        )

    def live_leases(self) -> list[LeaseInfo]:
        """Every lease on disk, fingerprint-sorted (stale ones included)."""
        if not self.leases_dir.is_dir():
            return []
        fingerprints = sorted(
            p.stem for p in self.leases_dir.glob("*.json")
            if not p.name.startswith(".")
        )
        infos = (self.inspect(fp) for fp in fingerprints)
        return [info for info in infos if info is not None]


# ----------------------------------------------------------------------
# worker registry (dashboard liveness)
# ----------------------------------------------------------------------
def workers_dir(store: ResultStore) -> Path:
    return store.root / "workers"


def write_worker_heartbeat(
    store: ResultStore,
    worker_id: str,
    executed: int = 0,
    errors: int = 0,
    current: str | None = None,
) -> Path:
    """Refresh this worker's registry entry (mtime is the liveness signal)."""
    path = workers_dir(store) / f"{worker_id}.json"
    _atomic_write_json(path, {
        "worker": worker_id,
        "executed": executed,
        "errors": errors,
        "current": current,
    })
    return path


def read_workers(store: ResultStore) -> list[dict]:
    """Registry entries plus mtime age, worker-id-sorted."""
    directory = workers_dir(store)
    if not directory.is_dir():
        return []
    out = []
    for path in sorted(directory.glob("*.json")):
        try:
            stat = path.stat()
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if not isinstance(data, dict):
            continue
        data["age_s"] = max(time.time() - stat.st_mtime, 0.0)
        out.append(data)
    return out


class _Heartbeat(threading.Thread):
    """Background mtime refresher for the lease + registry of a busy worker."""

    def __init__(
        self,
        leases: LeaseManager,
        store: ResultStore,
        fingerprint: str,
        interval_s: float,
        executed: int,
        errors: int,
    ) -> None:
        super().__init__(daemon=True, name=f"lease-heartbeat-{fingerprint}")
        self._leases = leases
        self._store = store
        self._fingerprint = fingerprint
        self._interval_s = interval_s
        self._executed = executed
        self._errors = errors
        # Not named _stop: threading.Thread claims that attribute.
        self._halt = threading.Event()

    def run(self) -> None:  # pragma: no cover - timing-dependent loop body
        while not self._halt.wait(self._interval_s):
            if not self._leases.refresh(self._fingerprint):
                logger.warning(
                    "lease on %s vanished mid-run (reclaimed as stale?); "
                    "the result commit stays safe — settlement is atomic",
                    self._fingerprint,
                )
            write_worker_heartbeat(
                self._store, self._leases.worker_id,
                executed=self._executed, errors=self._errors,
                current=self._fingerprint,
            )

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)


# ----------------------------------------------------------------------
# the worker loop
# ----------------------------------------------------------------------
@dataclass
class WorkerSummary:
    """What one :func:`run_worker` invocation did."""

    worker_id: str
    #: Cells this worker executed (split into successes and errors).
    executed: int = 0
    errors: int = 0
    #: Cells found already settled (by this or another worker).
    settled_elsewhere: int = 0
    #: Stale leases this worker reclaimed.
    reclaimed: int = 0
    elapsed_s: float = 0.0
    drained: bool = False
    _error_labels: list[str] = field(default_factory=list, repr=False)

    def stats_line(self) -> str:
        """`worker w1: 5 executed (1 error), 11 settled elsewhere in 3.2s`."""
        return (
            f"worker {self.worker_id}: {self.executed} executed "
            f"({self.errors} error{'s' if self.errors != 1 else ''}), "
            f"{self.settled_elsewhere} settled elsewhere "
            f"in {self.elapsed_s:.1f}s"
        )


def run_worker(
    store: ResultStore | str | Path,
    cells: Sequence[CellSpec] | None = None,
    worker_id: str | None = None,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    poll_s: float = DEFAULT_POLL_S,
    max_cells: int | None = None,
    timeout_s: float | None = None,
    progress: Callable[[CellResult], None] | None = None,
) -> WorkerSummary:
    """Lease-loop until the grid is drained (or ``max_cells`` is hit).

    ``cells=None`` reads the grid from the store's published manifest —
    the normal fleet deployment: one coordinator publishes, N machines
    run ``repro sweep --worker --store <shared-dir>``.  When ``cells``
    is given it is merged into the manifest first.

    Drain discipline: a cell with *any* stored result — success or
    error — is settled; errors stored *before* this worker started are
    retried once (their profile directory purged so the retry starts
    cold), because a crash is not a cacheable fact about the
    configuration, but errors committed during the session are final
    for every live worker, so a deterministically-failing cell cannot
    ping-pong between workers forever.
    """
    if not isinstance(store, ResultStore):
        store = ResultStore(store)
    worker_id = worker_id or default_worker_id()
    if cells is not None:
        publish_manifest(store, cells)
    grid = load_manifest(store)
    if not grid:
        raise ValueError(
            f"no grid to drain: {manifest_path(store)} is missing or empty "
            "(publish one by passing cells, or run a coordinator first)"
        )

    leases = LeaseManager(store, worker_id, ttl_s=lease_ttl_s)
    summary = WorkerSummary(worker_id=worker_id)
    start = time.perf_counter()
    # Errors already on disk when we started: retry candidates (once).
    retryable = {
        cell.fingerprint()
        for cell in grid
        if (stored := store.get(cell.fingerprint())) is not None and not stored.ok
    }
    write_worker_heartbeat(store, worker_id)

    # Manifest cells are fingerprint-unique and fingerprint-sorted;
    # draining them workload-major (stable, so every worker still walks
    # one shared order) lets the DAG memo compile each workload once.
    pending = sorted(grid, key=lambda cell: cell.workload)
    dags: DagMemo = {}
    while pending:
        made_progress = False
        still_pending: list[CellSpec] = []
        for cell in pending:
            if max_cells is not None and summary.executed >= max_cells:
                break
            fingerprint = cell.fingerprint()
            stored = store.get(fingerprint)
            if stored is not None and fingerprint not in retryable:
                summary.settled_elsewhere += 1
                made_progress = True
                continue
            lease_existed = leases.lease_path(fingerprint).exists()
            if not leases.acquire(fingerprint):
                still_pending.append(cell)
                continue
            if lease_existed:
                summary.reclaimed += 1
            try:
                # Re-check under the lease: another worker may have
                # settled (or retried) the cell while we raced for it.
                stored = store.get(fingerprint)
                if stored is not None and fingerprint not in retryable:
                    summary.settled_elsewhere += 1
                    made_progress = True
                    continue
                retryable.discard(fingerprint)
                # Recompute = reset: purge any stale profile directory
                # so the run starts cold (pure function of the spec).
                store.reset_profiles(fingerprint)
                profile_path = (
                    str(store.profile_path(fingerprint))
                    if cell.profile_store else None
                )
                heartbeat = _Heartbeat(
                    leases, store, fingerprint, heartbeat_s,
                    summary.executed, summary.errors,
                )
                heartbeat.start()
                try:
                    result = run_cell(cell, profile_path, dags)
                finally:
                    heartbeat.stop()
                store.put(result)
                summary.executed += 1
                if not result.ok:
                    summary.errors += 1
                    summary._error_labels.append(cell.label())
                made_progress = True
                write_worker_heartbeat(
                    store, worker_id,
                    executed=summary.executed, errors=summary.errors,
                )
                if progress is not None:
                    progress(result)
            finally:
                leases.release(fingerprint)
        else:
            pending = still_pending
            if pending and not made_progress:
                if (
                    timeout_s is not None
                    and time.perf_counter() - start > timeout_s
                ):
                    raise TimeoutError(
                        f"worker {worker_id} stalled for {timeout_s:g}s with "
                        f"{len(pending)} cell(s) leased elsewhere"
                    )
                time.sleep(poll_s)
            continue
        break  # max_cells reached

    summary.drained = not pending
    summary.elapsed_s = time.perf_counter() - start
    write_worker_heartbeat(
        store, worker_id,
        executed=summary.executed, errors=summary.errors,
    )
    return summary


__all__ = [
    "DEFAULT_HEARTBEAT_S",
    "DEFAULT_LEASE_TTL_S",
    "DEFAULT_POLL_S",
    "MANIFEST_VERSION",
    "LeaseInfo",
    "LeaseManager",
    "WorkerSummary",
    "default_worker_id",
    "load_manifest",
    "manifest_path",
    "publish_manifest",
    "read_workers",
    "run_worker",
    "workers_dir",
    "write_worker_heartbeat",
]
