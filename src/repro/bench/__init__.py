"""Engine benchmark inputs.

:mod:`repro.bench.engine_bench` builds the large synthetic applications
that time the simulation engine itself — not the paper's figures —
under its two scheduling cores (``benchmarks/test_engine_scale.py``).
"""
