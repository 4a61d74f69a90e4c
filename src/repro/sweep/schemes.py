"""Declarative cache-scheme specifications for sweep cells.

A sweep cell must be shippable to a worker *process*, so it cannot hold
a live :class:`~repro.policies.scheme.CacheScheme` (schemes are stateful
and some factories are lambdas, which do not pickle).  Instead a cell
carries a :class:`SchemeSpec` — a frozen, picklable description of which
scheme to build and with which knobs — and the worker instantiates the
scheme right before simulating.

:data:`SCHEME_SPECS` is the one table of scheme names: the CLI, trace
replay, grid specs and multi-tenant ``AppSpec`` all resolve through
:func:`resolve_scheme`, which matches names in any case.  Names match
the labels used across ``docs/policies.md`` and EXPERIMENTS.md.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.core.app_profiler import ProfileStore
from repro.core.policy import MrdScheme
from repro.policies.scheme import (
    BeladyScheme,
    CacheScheme,
    FifoScheme,
    LfuScheme,
    LrcScheme,
    LruScheme,
    MemTuneScheme,
    RandomScheme,
)

#: Zero-argument constructors for the non-MRD bases.
_BASE_FACTORIES: dict[str, Callable[[], CacheScheme]] = {
    "LRU": LruScheme,
    "FIFO": FifoScheme,
    "LFU": LfuScheme,
    "Random": RandomScheme,
    "LRC": LrcScheme,
    "MemTune": MemTuneScheme,
    "Belady": BeladyScheme,
}

#: Scheme bases a :class:`SchemeSpec` may name.
SCHEME_BASES: tuple[str, ...] = tuple(_BASE_FACTORIES) + ("MRD",)


@dataclass(frozen=True)
class SchemeSpec:
    """Picklable description of one cache scheme configuration.

    Non-MRD bases ignore the MRD-only knobs; :meth:`to_dict` normalizes
    them away so that e.g. ``SchemeSpec("LRU", mode="adhoc")`` and
    ``SchemeSpec("LRU")`` produce the same sweep-cell fingerprint.
    """

    base: str = "LRU"
    evict: bool = True
    prefetch: bool = True
    mode: str = "recurring"
    metric: str = "stage"

    def __post_init__(self) -> None:
        if self.base not in SCHEME_BASES:
            raise ValueError(
                f"unknown scheme base {self.base!r}; choose from {sorted(SCHEME_BASES)}"
            )
        if self.mode not in ("recurring", "adhoc"):
            raise ValueError(f"mode must be 'recurring' or 'adhoc', got {self.mode!r}")
        if self.metric not in ("stage", "job"):
            raise ValueError(f"metric must be 'stage' or 'job', got {self.metric!r}")
        if self.base == "MRD" and not (self.evict or self.prefetch):
            raise ValueError("at least one of evict/prefetch must be enabled")

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Display name, mirroring :class:`MrdScheme`'s naming rules."""
        if self.base != "MRD":
            return self.base
        variant = "MRD"
        if not self.prefetch:
            variant = "MRD-evict"
        elif not self.evict:
            variant = "MRD-prefetch"
        if self.metric == "job":
            variant += "-jobdist"
        if self.mode == "adhoc":
            variant += "-adhoc"
        return variant

    def build(self, profile_store: ProfileStore | None = None) -> CacheScheme:
        """Fresh scheme instance (``profile_store`` applies to MRD only)."""
        if self.base != "MRD":
            return _BASE_FACTORIES[self.base]()
        return MrdScheme(
            evict=self.evict,
            prefetch=self.prefetch,
            mode=self.mode,
            metric=self.metric,
            profile_store=profile_store,
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Canonical JSON form (MRD-only knobs dropped for other bases)."""
        if self.base != "MRD":
            return {"base": self.base}
        return {
            "base": self.base,
            "evict": self.evict,
            "prefetch": self.prefetch,
            "mode": self.mode,
            "metric": self.metric,
        }

    @classmethod
    def from_dict(cls, data: dict) -> SchemeSpec:
        """Inverse of :meth:`to_dict` (unknown keys rejected)."""
        allowed = {"base", "evict", "prefetch", "mode", "metric"}
        extra = set(data) - allowed
        if extra:
            raise ValueError(f"unknown scheme keys: {sorted(extra)}")
        return cls(**data)


#: Every scheme name the package accepts, in its display spelling.
SCHEME_SPECS: dict[str, SchemeSpec] = {
    "LRU": SchemeSpec("LRU"),
    "FIFO": SchemeSpec("FIFO"),
    "LFU": SchemeSpec("LFU"),
    "Random": SchemeSpec("Random"),
    "LRC": SchemeSpec("LRC"),
    "MemTune": SchemeSpec("MemTune"),
    "Belady": SchemeSpec("Belady"),
    "MRD": SchemeSpec("MRD"),
    "MRD-evict": SchemeSpec("MRD", prefetch=False),
    "MRD-prefetch": SchemeSpec("MRD", evict=False),
    "MRD-adhoc": SchemeSpec("MRD", mode="adhoc"),
    "MRD-jobdist": SchemeSpec("MRD", metric="job"),
}

SchemeLike = SchemeSpec | str | dict


def resolve_scheme(value: SchemeLike) -> SchemeSpec:
    """Coerce a name, dict, or SchemeSpec into a :class:`SchemeSpec`.

    Names are :data:`SCHEME_SPECS` keys in any case (``"mrd-adhoc"`` is
    ``"MRD-adhoc"``).  Raises ``ValueError`` for unknown names or
    malformed dicts; live factories (plain callables) are *not* accepted
    here — they cannot cross a process boundary.
    """
    if isinstance(value, SchemeSpec):
        return value
    if isinstance(value, str):
        for name, spec in SCHEME_SPECS.items():
            if name.lower() == value.lower():
                return spec
        raise ValueError(
            f"unknown scheme {value!r}; choose from {sorted(SCHEME_SPECS)}"
        )
    if isinstance(value, dict):
        return SchemeSpec.from_dict(value)
    raise ValueError(
        f"cannot resolve scheme from {type(value).__name__}; "
        "pass a SchemeSpec, a scheme name or a SchemeSpec dict"
    )


def resolve_scheme_mix(values: Iterable[SchemeLike]) -> tuple[SchemeSpec, ...]:
    """Resolve a scheme *mix* (one entry per concurrent application).

    The multi-tenant CLI takes ``--schemes LRU,MRD`` and cycles the mix
    over the submitted applications; this resolves every entry eagerly
    so an unknown name fails before any simulation starts.
    """
    specs = tuple(resolve_scheme(v) for v in values)
    if not specs:
        raise ValueError("a scheme mix needs at least one scheme")
    return specs

