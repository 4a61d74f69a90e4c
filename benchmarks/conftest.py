"""Benchmark-suite configuration.

What ``repro report`` does not gate lives here: Fig. 2, Tables 1 and 3,
the ablations, the oracle comparison, the robustness and sensitivity
studies, the §4.4 overheads, the engine speed floors and the micro
benchmarks.  Figures 4–12 are regenerated and checked by ``repro
report`` against ``repro.experiments.claims``.  Each benchmark prints
its rendered result (``pytest benchmarks/ --benchmark-only -s``).
Experiment drivers are deterministic whole-simulation runs, so each is
measured with a single round — the interesting output is the table,
not the nanoseconds.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def run_experiment(benchmark, capsys):
    """Run an experiment driver once under pytest-benchmark and print it."""

    def _run(fn, render=None):
        result = benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
        if render is not None:
            with capsys.disabled():
                print()
                print(render(result))
        return result

    return _run
