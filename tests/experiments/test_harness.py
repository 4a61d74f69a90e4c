"""Unit tests for the shared experiment harness."""

import pytest

from repro.experiments.harness import (
    MIN_CACHE_MB,
    STANDARD_SCHEMES,
    build_workload_dag,
    cache_mb_for,
    format_table,
    sweep_workload,
)
from repro.simulator.config import TEST_CLUSTER


class TestSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        schemes = {k: STANDARD_SCHEMES[k] for k in ("LRU", "MRD")}
        return sweep_workload(
            "SP", schemes=schemes, cluster=TEST_CLUSTER,
            cache_fractions=(0.3, 0.6), partitions=16,
        )

    def test_all_combinations_present(self, sweep):
        assert len(sweep.runs) == 4
        assert sweep.fractions() == [0.3, 0.6]
        assert sweep.schemes() == ["LRU", "MRD"]

    def test_get_and_missing(self, sweep):
        run = sweep.get("MRD", 0.3)
        assert run.scheme == "MRD"
        with pytest.raises(KeyError):
            sweep.get("MRD", 0.99)

    def test_normalized_jct_baseline_is_one(self, sweep):
        assert sweep.normalized_jct("LRU", 0.3) == pytest.approx(1.0)

    def test_best_fraction_is_argmin(self, sweep):
        best = sweep.best_fraction("MRD")
        ratios = {f: sweep.normalized_jct("MRD", f) for f in sweep.fractions()}
        assert ratios[best] == min(ratios.values())

    def test_cache_floor(self):
        dag = build_workload_dag("SP", scale=0.001, partitions=4)
        assert cache_mb_for(dag, 0.01, TEST_CLUSTER) == MIN_CACHE_MB


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(["a", "bb"], [[1, 2.345], [33, 4.0]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.35" in text or "2.34" in text
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows padded equally

    def test_empty_rows(self):
        text = format_table(["x"], [])
        assert "x" in text
