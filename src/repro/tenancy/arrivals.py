"""Application arrival processes for the multi-tenant simulator.

A shared cluster does not receive its applications all at once: they
stream in.  An :class:`ArrivalProcess` turns "N applications" into N
deterministic arrival times, so offered load becomes a first-class
experimental knob (``repro.experiments.fig_load`` sweeps it).

Determinism contract: every stochastic process draws from a fresh
``random.Random(seed)`` created *inside* :meth:`times` — two calls with
the same ``n`` return identical times, and no draw ever touches the
process-global RNG (DET001).
"""

from __future__ import annotations

import abc
import random


class ArrivalProcess(abc.ABC):
    """Maps an application count to sorted, non-negative arrival times."""

    name: str = "arrivals"

    @abc.abstractmethod
    def times(self, n: int) -> list[float]:
        """Arrival times of the first ``n`` applications (non-decreasing)."""

    def _check(self, n: int) -> None:
        if n < 0:
            raise ValueError("application count must be non-negative")


class FixedArrivals(ArrivalProcess):
    """Evenly spaced arrivals; ``interval=0`` submits everything at once."""

    name = "fixed"

    def __init__(self, interval: float = 0.0, start: float = 0.0) -> None:
        if interval < 0:
            raise ValueError("interval must be non-negative")
        if start < 0:
            raise ValueError("start must be non-negative")
        self.interval = interval
        self.start = start

    def times(self, n: int) -> list[float]:
        self._check(n)
        return [self.start + i * self.interval for i in range(n)]


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at ``rate`` applications per simulated second.

    The canonical open-system load model: interarrival gaps are i.i.d.
    exponential with mean ``1/rate``, so sweeping ``rate`` sweeps the
    offered load directly.
    """

    name = "poisson"

    def __init__(self, rate: float, seed: int = 0) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self.seed = seed

    def times(self, n: int) -> list[float]:
        self._check(n)
        rng = random.Random(self.seed)
        t = 0.0
        out: list[float] = []
        for _ in range(n):
            t += rng.expovariate(self.rate)
            out.append(t)
        return out
