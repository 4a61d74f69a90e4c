"""Small numeric helpers: percentiles with their sample counts, ratios."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass


@dataclass(frozen=True)
class Percentile:
    """A nearest-rank percentile and how many samples it rests on."""

    q: float
    value: float
    samples: int
    #: Samples strictly above ``value``.
    beyond: int

    def describe(self, unit: str) -> str:
        return (
            f"p{self.q:g} {self.value:.4f} {unit} "
            f"({self.samples} samples, {self.beyond} beyond)"
        )


def percentile(values: Sequence[float], q: float) -> Percentile:
    """Nearest-rank ``q``-th percentile (an observed value, no interpolation)."""
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    value = ordered[math.ceil(q / 100.0 * len(ordered)) - 1]
    return Percentile(
        q=q,
        value=value,
        samples=len(ordered),
        beyond=sum(1 for v in ordered if v > value),
    )


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0.0 when there is nothing to divide by."""
    return numerator / denominator if denominator else 0.0
