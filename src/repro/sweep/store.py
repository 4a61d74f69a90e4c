"""Content-addressed, resumable on-disk store for sweep results.

Layout under one root directory::

    <root>/
      cells/<fingerprint>.json     one CellResult per completed cell
      profiles/<fingerprint>/      per-cell ProfileStore directory

Every completed cell — success *or* failure — is written atomically
(temp file + ``os.replace``) the moment it finishes, so a sweep killed
mid-flight leaves only whole result files behind and the next run
resumes from them.  A cell's file name is its config fingerprint
(:meth:`repro.sweep.spec.CellSpec.fingerprint`): re-running a sweep
recomputes exactly the cells whose configuration changed and serves the
rest from disk.  Unreadable result files are treated as absent (the
cell recomputes), mirroring :class:`~repro.core.app_profiler.ProfileStore`'s
log-and-ignore contract.

Profile directories are per-fingerprint on purpose: MRD's recurring
mode trusts whatever :class:`ProfileStore` serves for an application
signature, and workload signatures do not encode scale/iterations — so
two configurations sharing one store path silently contaminate each
other (the regression test in ``tests/sweep/test_profile_isolation.py``
demonstrates it).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import shutil
import tempfile
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

from repro.simulator.metrics import RunMetrics
from repro.simulator.reporting import metrics_from_dict

logger = logging.getLogger(__name__)

#: CellResult completion states.
STATUS_OK = "ok"
STATUS_ERROR = "error"


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Publish ``text`` to ``path`` whole-file-or-nothing.

    The store's one write idiom: write a ``mkstemp`` sibling in the
    destination directory, then ``os.replace`` onto the final name —
    readers observe the old bytes or the new bytes, never a torn file.
    The temp file is unlinked on any failure.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise
    return path


@dataclass
class CellResult:
    """Outcome of one sweep cell: metrics on success, error otherwise."""

    fingerprint: str
    spec: dict
    status: str
    #: ``metrics_to_dict`` payload when ``status == "ok"``.
    metrics: dict | None = None
    #: ``{"type", "message", "traceback"}`` when ``status == "error"``.
    error: dict | None = None
    #: Wall-clock compute time (informational; excluded from identity).
    elapsed_s: float = 0.0
    #: True when this result was served from the store, not computed.
    #: Runtime-only — not persisted.
    cached: bool = field(default=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def run_metrics(self) -> RunMetrics:
        """Full :class:`RunMetrics` object (successful cells only)."""
        if not self.ok or self.metrics is None:
            raise ValueError(
                f"cell {self.fingerprint} has no metrics (status={self.status})"
            )
        return metrics_from_dict(self.metrics)

    def describe_error(self) -> str:
        """One-line error summary (``-`` for successful cells)."""
        if self.error is None:
            return "-"
        return f"{self.error.get('type', 'Error')}: {self.error.get('message', '')}"

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "spec": self.spec,
            "status": self.status,
            "metrics": self.metrics,
            "error": self.error,
            "elapsed_s": self.elapsed_s,
        }

    @classmethod
    def from_json(cls, data: dict) -> CellResult:
        return cls(
            fingerprint=data["fingerprint"],
            spec=data["spec"],
            status=data["status"],
            metrics=data.get("metrics"),
            error=data.get("error"),
            elapsed_s=data.get("elapsed_s", 0.0),
        )


class ResultStore:
    """Fingerprint-keyed result files plus per-cell profile directories."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.cells_dir = self.root / "cells"
        self.profiles_dir = self.root / "profiles"

    # ------------------------------------------------------------------
    def cell_path(self, fingerprint: str) -> Path:
        return self.cells_dir / f"{fingerprint}.json"

    def profile_path(self, fingerprint: str) -> Path:
        """Isolated ProfileStore file for one cell (directory created)."""
        cell_dir = self.profiles_dir / fingerprint
        cell_dir.mkdir(parents=True, exist_ok=True)
        return cell_dir / "profiles.json"

    # ------------------------------------------------------------------
    def reset_profiles(self, fingerprint: str) -> bool:
        """Purge a cell's ``profiles/<fingerprint>/`` directory.

        Called whenever a cell is about to *recompute* (``--no-resume``
        or a stored error retrying): a cell result must
        be a pure function of its spec, but MRD's recurring mode reads
        whatever profile the per-cell store already holds — so a profile
        left behind by an earlier run of the same fingerprint would leak
        into the fresh run and change its metrics.  Returns ``True``
        when something was removed.
        """
        cell_dir = self.profiles_dir / fingerprint
        if not cell_dir.exists():
            return False
        shutil.rmtree(cell_dir, ignore_errors=True)
        return True

    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> CellResult | None:
        """Stored result, or ``None`` when absent/unreadable."""
        path = self.cell_path(fingerprint)
        try:
            data = json.loads(path.read_text())
            result = CellResult.from_json(data)
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            logger.warning(
                "ignoring unreadable sweep result %s (%s: %s); "
                "the cell will be recomputed",
                path, type(exc).__name__, exc,
            )
            return None
        if result.fingerprint != fingerprint:
            logger.warning(
                "sweep result %s holds fingerprint %s; recomputing",
                path, result.fingerprint,
            )
            return None
        return result

    def put(self, result: CellResult) -> Path:
        """Atomically persist one result (whole file or nothing)."""
        return atomic_write_text(
            self.cell_path(result.fingerprint),
            json.dumps(result.to_json(), sort_keys=True),
        )

    # ------------------------------------------------------------------
    def fingerprints(self) -> list[str]:
        """Fingerprints with a stored result file, in sorted order.

        Sorted explicitly (DET004): ``Path.glob`` yields directory order,
        which depends on the filesystem and on cell completion order —
        resume behaviour must not.
        """
        if not self.cells_dir.is_dir():
            return []
        return sorted(p.stem for p in self.cells_dir.glob("*.json"))

    def content_digest(self) -> str:
        """SHA-256 over every stored result's *identity-bearing* content.

        Two stores holding the same results have the same digest no
        matter which processes computed the cells, in what order, or how
        long each took: ``elapsed_s`` is wall-clock and explicitly
        excluded from identity (see :class:`CellResult`).  This is the
        equality the parallel-sweep guardrail asserts — a ``--jobs N``
        pool must fill a store that digests identically to ``--jobs 1``.
        """
        h = hashlib.sha256()
        for result in self:
            payload = result.to_json()
            payload.pop("elapsed_s", None)
            h.update(result.fingerprint.encode())
            h.update(json.dumps(payload, sort_keys=True).encode())
        return h.hexdigest()

    def __len__(self) -> int:
        return len(self.fingerprints())

    def __iter__(self) -> Iterator[CellResult]:
        for fingerprint in self.fingerprints():
            result = self.get(fingerprint)
            if result is not None:
                yield result
