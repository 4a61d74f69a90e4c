"""Declarative sweep grids: cells, fingerprints, and spec files.

A *cell* (:class:`CellSpec`) is one fully-determined simulation — a
workload build, a cluster, a cache size, a scheme, a scheduling core
and a control-plane configuration — described entirely by plain data so
it can be shipped to a worker process and hashed into a content
address.  A *grid* (:class:`GridSpec`) is the cross product of axes
(workloads × schemes × cache fractions × clusters × seeds × schedulers
× control latencies) that expands deterministically into cells.

Fingerprints
------------

``CellSpec.fingerprint()`` is a SHA-256 over the cell's canonical JSON
form plus :data:`FINGERPRINT_VERSION`.  Two cells share a fingerprint
iff they describe the same simulation, so the fingerprint doubles as
the key of the on-disk result store (``repro.sweep.store``): editing
any field of a cell — and only that — invalidates its cached result.
Bump the version when the *meaning* of an existing field changes.

Seeds
-----

Randomized machinery (the rpc control plane's jitter/loss draws) must
not depend on which worker process, or in which order, a cell runs.
Every cell therefore derives its RNG seed from its own fingerprint
(:meth:`CellSpec.derived_control_seed`) unless an explicit
``control_seed`` is pinned — this is what makes ``--jobs N`` runs
bit-identical to ``--jobs 1`` runs.

Spec files are TOML (Python ≥ 3.11) or JSON; see ``docs/sweeping.md``
for the format.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.cluster.placement import PLACEMENTS
from repro.cluster.rebalance import REBALANCES
from repro.simulator.config import CLUSTERS
from repro.simulator.engine import SCHEDULERS
from repro.sweep.schemes import SCHEME_SPECS, SchemeLike, SchemeSpec, resolve_scheme

try:  # Python >= 3.11; on 3.10 TOML specs are unavailable (JSON still works)
    import tomllib
except ImportError:  # pragma: no cover - py3.10 fallback
    tomllib = None  # type: ignore[assignment]

#: Bump when the semantics of an existing CellSpec field change, so
#: stale result stores are invalidated wholesale.
#: v2: elastic-membership fields (placement/churn_rate/churn_seed/
#: rebalance) joined the canonical form.
FINGERPRINT_VERSION = 2

#: Minimum per-node cache so a single block always fits.
MIN_CACHE_MB = 8.0


def cache_mb_per_node(peak_mb: float, fraction: float, num_nodes: int) -> float:
    """The cache sizing rule: per-node MB for ``fraction`` of a peak live set."""
    return max(peak_mb * fraction / num_nodes, MIN_CACHE_MB)


#: Cluster-shape fields a spec may override per cell.
CLUSTER_OVERRIDE_FIELDS = (
    "num_nodes",
    "slots_per_node",
    "cpu_speed",
    "heterogeneity",
    "heterogeneity_seed",
)


@dataclass(frozen=True)
class CellSpec:
    """One fully-determined (workload, scheme, config) simulation."""

    workload: str
    #: Result label; defaults to the scheme spec's display name.
    scheme: str = ""
    scheme_spec: SchemeSpec = field(default_factory=SchemeSpec)
    cluster: str = "main"
    #: ``(field, value)`` pairs applied over the cluster preset, sorted.
    cluster_overrides: tuple[tuple[str, float], ...] = ()
    #: Cache as a fraction of the workload's peak live cached set;
    #: ignored when ``cache_mb`` pins an absolute per-node size.
    cache_fraction: float | None = 0.5
    cache_mb: float | None = None
    scale: float = 1.0
    iterations: int | None = None
    partitions: int | None = None
    seed: int = 0
    scheduler: str = "event"
    control_plane: str = "instant"
    control_latency: float | None = None
    control_jitter: float = 0.0
    control_loss: float = 0.0
    #: ``None`` → derived from the fingerprint (deterministic per cell).
    control_seed: int | None = None
    #: Partition-placement scheme ("stride" = legacy modulo striding,
    #: "rendezvous" = sticky join-stable hashing).
    placement: str = "stride"
    #: Per-stage-boundary probability of a membership event (join or
    #: decommission, equal odds); 0 = static membership.
    churn_rate: float = 0.0
    #: ``None`` → derived from the fingerprint (deterministic per cell).
    churn_seed: int | None = None
    #: What happens to a decommissioned node's cache ("drop"/"migrate").
    rebalance: str = "drop"
    #: Give this cell a file-backed, per-cell ProfileStore (requires a
    #: result store); cells NEVER share profile directories — a stored
    #: profile from one configuration silently changes another's MRD
    #: behaviour (see tests/sweep/test_profile_isolation.py).
    profile_store: bool = False

    def __post_init__(self) -> None:
        if not self.workload:
            raise ValueError("cell needs a workload name")
        if self.scheme == "":
            object.__setattr__(self, "scheme", self.scheme_spec.name)
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"scheduler must be one of {SCHEDULERS}, got {self.scheduler!r}"
            )
        if self.control_plane not in ("instant", "rpc"):
            raise ValueError(
                f"control_plane must be 'instant' or 'rpc', got {self.control_plane!r}"
            )
        if self.cache_mb is None and self.cache_fraction is None:
            raise ValueError("cell needs cache_fraction or cache_mb")
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"placement must be one of {PLACEMENTS}, got {self.placement!r}"
            )
        if not 0.0 <= self.churn_rate <= 1.0:
            raise ValueError(f"churn_rate must be in [0, 1], got {self.churn_rate!r}")
        if self.rebalance not in REBALANCES:
            raise ValueError(
                f"rebalance must be one of {REBALANCES}, got {self.rebalance!r}"
            )
        bad = [k for k, _ in self.cluster_overrides if k not in CLUSTER_OVERRIDE_FIELDS]
        if bad:
            raise ValueError(
                f"unknown cluster override(s) {bad}; "
                f"choose from {CLUSTER_OVERRIDE_FIELDS}"
            )
        object.__setattr__(
            self, "cluster_overrides", tuple(sorted(self.cluster_overrides))
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Canonical, JSON-stable form (the fingerprint input)."""
        return {
            "workload": self.workload,
            "scheme": self.scheme,
            "scheme_spec": self.scheme_spec.to_dict(),
            "cluster": self.cluster,
            "cluster_overrides": [list(p) for p in self.cluster_overrides],
            "cache_fraction": None if self.cache_mb is not None else self.cache_fraction,
            "cache_mb": self.cache_mb,
            "scale": self.scale,
            "iterations": self.iterations,
            "partitions": self.partitions,
            "seed": self.seed,
            "scheduler": self.scheduler,
            "control_plane": self.control_plane,
            "control_latency": self.control_latency if self.control_plane == "rpc" else None,
            "control_jitter": self.control_jitter if self.control_plane == "rpc" else 0.0,
            "control_loss": self.control_loss if self.control_plane == "rpc" else 0.0,
            "control_seed": self.control_seed if self.control_plane == "rpc" else None,
            # Churn-only fields normalize to inert values for static
            # cells: a churn seed or rebalance choice that cannot affect
            # the run must not split its fingerprint.
            "placement": self.placement,
            "churn_rate": self.churn_rate,
            "churn_seed": self.churn_seed if self.churn_rate > 0 else None,
            "rebalance": self.rebalance if self.churn_rate > 0 else "drop",
            "profile_store": self.profile_store,
        }

    @classmethod
    def from_dict(cls, data: dict) -> CellSpec:
        """Rebuild a cell from :meth:`to_dict` output."""
        data = dict(data)
        data["scheme_spec"] = SchemeSpec.from_dict(data.get("scheme_spec", {}))
        data["cluster_overrides"] = tuple(
            (k, v) for k, v in data.get("cluster_overrides", ())
        )
        return cls(**data)

    def fingerprint(self) -> str:
        """Content address of this cell (16 hex chars of SHA-256)."""
        payload = {"v": FINGERPRINT_VERSION, **self.to_dict()}
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def derived_control_seed(self) -> int:
        """Per-cell RNG seed: explicit ``control_seed`` or fingerprint-derived.

        Derived from the cell's own content — never from the worker
        process or submission order — so parallel and serial sweeps draw
        identical random sequences.
        """
        if self.control_seed is not None:
            return self.control_seed
        return int(self.fingerprint()[:8], 16)

    def derived_churn_seed(self) -> int:
        """Churn-history seed: explicit ``churn_seed`` or fingerprint-derived.

        Uses a different fingerprint slice than the control seed so the
        two RNG streams never coincide on the same cell.
        """
        if self.churn_seed is not None:
            return self.churn_seed
        return int(self.fingerprint()[8:16], 16)

    def label(self) -> str:
        """Short human-readable identifier for progress lines."""
        cache = (
            f"{self.cache_mb:g}MB" if self.cache_mb is not None
            else f"@{self.cache_fraction:g}"
        )
        extra = ""
        if self.scheduler != "event":
            extra += f" [{self.scheduler}]"
        if self.control_plane == "rpc":
            extra += f" rpc={self.control_latency or 0:g}s"
        if self.placement != "stride":
            extra += f" {self.placement}"
        if self.churn_rate > 0:
            extra += f" churn={self.churn_rate:g}/{self.rebalance}"
        return f"{self.workload}/{self.scheme}{cache}{extra}"


def validate_cells(cells: Sequence[CellSpec]) -> None:
    """Fail fast on names a worker would reject (workloads, clusters).

    Workloads registered dynamically in this process (e.g. trace
    workloads) pass validation here but reach worker processes only
    under the ``fork`` start method; elsewhere the cell records an
    error result instead of killing the sweep.
    """
    from repro.workloads.registry import workload_names

    known = set(workload_names())
    for cell in cells:
        if cell.workload not in known:
            raise ValueError(
                f"unknown workload {cell.workload!r}; "
                f"choose from {sorted(known)}"
            )
        if cell.cluster not in CLUSTERS:
            raise ValueError(
                f"unknown cluster {cell.cluster!r}; choose from {sorted(CLUSTERS)}"
            )


# ----------------------------------------------------------------------
@dataclass
class GridSpec:
    """Cross product of sweep axes; expands into :class:`CellSpec` cells.

    Scalar fields (``scale``, ``control_jitter``, …) apply to every
    cell; list fields are axes.  ``schemes`` entries may be registry
    names (``"MRD-evict"``), ``SchemeSpec`` instances, or
    ``(label, SchemeSpec)`` pairs when a custom label is wanted.
    """

    workloads: list[str] = field(default_factory=list)
    schemes: list[object] = field(default_factory=lambda: ["LRU", "MRD"])
    cache_fractions: list[float] = field(default_factory=lambda: [0.5])
    cache_mb: float | None = None
    clusters: list[str] = field(default_factory=lambda: ["main"])
    cluster_overrides: dict = field(default_factory=dict)
    scale: float = 1.0
    iterations: int | None = None
    partitions: int | None = None
    seeds: list[int] = field(default_factory=lambda: [0])
    schedulers: list[str] = field(default_factory=lambda: ["event"])
    control_plane: str = "instant"
    control_latencies: list[float | None] = field(default_factory=lambda: [None])
    control_jitter: float = 0.0
    control_loss: float = 0.0
    control_seed: int | None = None
    placements: list[str] = field(default_factory=lambda: ["stride"])
    churn_rates: list[float] = field(default_factory=lambda: [0.0])
    churn_seed: int | None = None
    rebalances: list[str] = field(default_factory=lambda: ["drop"])
    profile_store: bool = False
    name: str = "sweep"

    def resolved_schemes(self) -> list[tuple[str, SchemeSpec]]:
        """``(label, SchemeSpec)`` pairs in declaration order."""
        pairs: list[tuple[str, SchemeSpec]] = []
        for entry in self.schemes:
            if isinstance(entry, tuple):
                label, spec = entry
                pairs.append((str(label), resolve_scheme(spec)))
            elif isinstance(entry, dict) and "name" in entry:
                entry = dict(entry)
                label = entry.pop("name")
                pairs.append((str(label), resolve_scheme(entry)))
            else:
                # A name labels its cell in its registered spelling
                # (``"lru"`` is the ``"LRU"`` cell): every SCHEME_SPECS
                # entry's ``name`` is its key.
                spec = resolve_scheme(entry)  # type: ignore[arg-type]
                pairs.append((spec.name, spec))
        return pairs

    def cells(self) -> list[CellSpec]:
        """Expand the grid, workload-major, in deterministic order."""
        if not self.workloads:
            return []
        overrides = tuple(sorted(self.cluster_overrides.items()))
        schemes = self.resolved_schemes()
        fractions: Sequence[float | None] = (
            [None] if self.cache_mb is not None else self.cache_fractions
        )
        out: list[CellSpec] = []
        for workload in self.workloads:
            for cluster in self.clusters:
                for fraction in fractions:
                    for label, spec in schemes:
                        for seed in self.seeds:
                            for scheduler in self.schedulers:
                                for latency in self.control_latencies:
                                    for placement in self.placements:
                                        for churn in self.churn_rates:
                                            for rebalance in self.rebalances:
                                                out.append(CellSpec(
                                                    workload=workload,
                                                    scheme=label,
                                                    scheme_spec=spec,
                                                    cluster=cluster,
                                                    cluster_overrides=overrides,
                                                    cache_fraction=fraction,
                                                    cache_mb=self.cache_mb,
                                                    scale=self.scale,
                                                    iterations=self.iterations,
                                                    partitions=self.partitions,
                                                    seed=seed,
                                                    scheduler=scheduler,
                                                    control_plane=self.control_plane,
                                                    control_latency=latency,
                                                    control_jitter=self.control_jitter,
                                                    control_loss=self.control_loss,
                                                    control_seed=self.control_seed,
                                                    placement=placement,
                                                    churn_rate=churn,
                                                    churn_seed=self.churn_seed,
                                                    rebalance=rebalance,
                                                    profile_store=self.profile_store,
                                                ))
        return out

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: dict) -> GridSpec:
        """Build a grid from a parsed TOML/JSON mapping (strict keys)."""
        data = dict(data)
        # Accepted aliases, matching the CLI flag names.
        if "fractions" in data:
            data["cache_fractions"] = data.pop("fractions")
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown grid spec key(s): {sorted(extra)}")
        for list_key in ("workloads", "schemes", "cache_fractions", "clusters",
                         "seeds", "schedulers", "control_latencies",
                         "placements", "churn_rates", "rebalances"):
            if list_key in data and not isinstance(data[list_key], list):
                data[list_key] = [data[list_key]]
        grid = cls(**data)
        grid.resolved_schemes()  # validate scheme entries eagerly
        for scheduler in grid.schedulers:
            if scheduler not in SCHEDULERS:
                raise ValueError(
                    f"scheduler must be one of {SCHEDULERS}, got {scheduler!r}"
                )
        return grid


def load_grid(path: str | Path) -> GridSpec:
    """Read a grid spec file (``.toml`` on Python ≥ 3.11, else JSON)."""
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".toml":
        if tomllib is None:
            raise ValueError(
                f"{path}: TOML specs need Python >= 3.11 (tomllib); "
                "use a JSON spec on this interpreter"
            )
        data = tomllib.loads(text)
    else:
        data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: grid spec must be a mapping")
    try:
        return GridSpec.from_dict(data)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


__all__ = [
    "CLUSTER_OVERRIDE_FIELDS",
    "FINGERPRINT_VERSION",
    "CellSpec",
    "GridSpec",
    "SCHEME_SPECS",
    "SchemeLike",
    "SchemeSpec",
    "load_grid",
    "resolve_scheme",
    "validate_cells",
]
