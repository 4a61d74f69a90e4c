"""Digest of a finished simulation: its metrics and recorded events.

Covers every field :func:`metrics_to_dict` reports (churn counters,
presence fractions, control-plane stats, per-node hit ratios) plus, when
given, the full recorded trace-event stream — so a pinned digest catches
any change to what a run computes or records.  Floats are kept exact:
``json.dumps`` writes their shortest round-trip repr.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable

from repro.simulator.metrics import RunMetrics
from repro.simulator.reporting import metrics_to_dict


def run_digest(metrics: Iterable[RunMetrics], events: Iterable = (), *extra) -> str:
    """SHA-256 (16 hex chars) of the runs' metrics, events and ``extra``."""
    blob = json.dumps(
        {
            "metrics": [metrics_to_dict(m) for m in metrics],
            "events": [ev.to_dict() for ev in events],
            "extra": list(extra),
        },
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
