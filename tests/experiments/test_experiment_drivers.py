"""Smoke + shape tests for every experiment driver (reduced scope)."""

import math

import pytest

from repro.experiments import (
    fig2,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11_12,
    fig_control_latency,
    fig_elastic,
    fig_load,
    table1,
    table3,
)

FAST_FRACTIONS = (0.3, 0.6)


class TestTables:
    def test_table1_covers_all_twenty_workloads(self):
        rows = table1.run()
        assert len(rows) == 20
        text = table1.render(rows)
        assert "LP" in text and "HiKMeans" in text

    def test_table1_hibench_zeroes(self):
        rows = {r.measured.workload: r.measured for r in table1.run()}
        assert rows["Sort"].avg_stage_distance == 0.0
        assert rows["WordCount"].max_job_distance == 0

    def test_table3_covers_sparkbench(self):
        rows = table3.run()
        assert len(rows) == 14
        assert all(r.measured.num_jobs > 0 for r in rows)
        assert "I/O intensive" in table3.render(rows)


class TestFig2:
    def test_trace_dimensions(self):
        trace = fig2.run("CC", max_rdds=6)
        n_stages = trace.dag.num_active_stages
        assert len(trace.rdd_ids) <= 6
        for rid in trace.rdd_ids:
            assert len(trace.lru[rid]) == n_stages
            assert len(trace.lrc[rid]) == n_stages
            assert len(trace.mrd[rid]) == n_stages

    def test_metric_semantics_at_reference_points(self):
        trace = fig2.run("CC", max_rdds=6)
        dag = trace.dag
        for rid in trace.rdd_ids:
            prof = dag.profiles[rid]
            for seq in prof.read_seqs:
                assert trace.lru[rid][seq] == 0.0  # just touched
                assert trace.mrd[rid][seq] == 0.0  # needed right now
                assert trace.lrc[rid][seq] >= 1.0  # this read still counted

    def test_mrd_infinite_after_last_reference(self):
        trace = fig2.run("CC", max_rdds=6)
        for rid in trace.rdd_ids:
            prof = trace.dag.profiles[rid]
            last = max(prof.read_seqs, default=prof.created_seq)
            tail = trace.mrd[rid][last + 1:]
            assert all(math.isinf(v) for v in tail)

    def test_render_both_panels(self):
        trace = fig2.run("CC", max_rdds=4)
        for policy in ("lru", "lrc", "mrd"):
            assert "Figure 2" in fig2.render(trace, policy)


class TestFig4:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig4.run(workloads=("CC", "DT"), cache_fractions=FAST_FRACTIONS)

    def test_row_fields(self, rows):
        assert {r.workload for r in rows} == {"CC", "DT"}
        for r in rows:
            assert 0 < r.full <= 1.5
            assert 0 <= r.lru_hit <= 1 and 0 <= r.mrd_hit <= 1

    def test_io_workload_beats_cpu_workload(self, rows):
        by_name = {r.workload: r for r in rows}
        assert by_name["CC"].full < by_name["DT"].full

    def test_render_and_averages(self, rows):
        text = fig4.render(rows)
        assert "AVERAGE" in text
        avg = fig4.averages(rows)
        assert set(avg) == {"evict_only", "prefetch_only", "full", "lru_hit", "mrd_hit"}


class TestComparisonFigures:
    def test_fig5_mrd_vs_lrc(self):
        rows = fig5.run(workloads=("CC",), cache_fractions=FAST_FRACTIONS)
        (row,) = rows
        assert row.mrd_vs_lrc <= 1.05  # MRD does not lose to LRC on CC
        assert "LRC" in fig5.render(rows)

    def test_fig6_mrd_vs_memtune(self):
        rows = fig6.run(workloads=("PR",), cache_fractions=FAST_FRACTIONS)
        (row,) = rows
        assert row.mrd_vs_memtune <= 1.05
        assert "MemTune" in fig6.render(rows)


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        return fig7.run("SVD++", fractions=(0.2, 0.5, 0.9), target_hit=0.3)

    def test_hit_ratio_monotone_in_cache_for_mrd(self, result):
        hits = result.hit["MRD"]
        assert all(b >= a - 0.02 for a, b in zip(hits, hits[1:]))

    def test_mrd_dominates_lru_hits(self, result):
        for lru_h, mrd_h in zip(result.hit["LRU"], result.hit["MRD"]):
            assert mrd_h >= lru_h - 0.02

    def test_cache_savings_positive(self, result):
        savings = fig7.cache_savings_pct(result)
        assert savings is None or savings >= 0
        assert "Figure 7" in fig7.render(result)


class TestAblationFigures:
    def test_fig8_lp_degrades_more(self):
        rows = fig8.run(cache_fractions=(0.4,))
        by_name = {r.workload: r for r in rows}
        lp_loss = by_name["LP"].job_metric_jct / by_name["LP"].stage_metric_jct
        km_loss = by_name["KM"].job_metric_jct / by_name["KM"].stage_metric_jct
        assert lp_loss >= km_loss
        assert "Figure 8" in fig8.render(rows)

    def test_fig9_km_degrades_more(self):
        rows = fig9.run(cache_fractions=(0.5,))
        by_name = {r.workload: r for r in rows}
        km_loss = by_name["KM"].adhoc_jct / by_name["KM"].recurring_jct
        tc_loss = by_name["TC"].adhoc_jct / by_name["TC"].recurring_jct
        assert km_loss >= tc_loss
        assert "Figure 9" in fig9.render(rows)

    def test_fig10_iterations_grow_dags(self):
        rows = fig10.run(workloads=("CC", "DT"), cache_fractions=(0.4,))
        by_name = {r.workload: r for r in rows}
        assert by_name["CC"].jobs_3x > by_name["CC"].jobs_1x
        assert by_name["DT"].jobs_3x == by_name["DT"].jobs_1x  # paper's callout
        assert "Figure 10" in fig10.render(rows)


class TestSummaryHelpers:
    def test_fig7_savings_none_when_target_unreached(self):
        from repro.experiments.fig7 import Fig7Result, cache_savings_pct

        result = Fig7Result(workload="x", target_hit=0.99)
        result.cache_to_reach_target = {"LRU": None, "MRD": 20.0}
        assert cache_savings_pct(result) is None

    def test_fig7_savings_math(self):
        from repro.experiments.fig7 import Fig7Result, cache_savings_pct

        result = Fig7Result(workload="x", target_hit=0.5)
        result.cache_to_reach_target = {"LRU": 100.0, "MRD": 40.0}
        assert cache_savings_pct(result) == 60.0

    def test_fig4_best_fraction_selection(self):
        rows = fig4.run(workloads=("SP",), cache_fractions=(0.2, 0.6))
        (row,) = rows
        assert row.best_fraction in (0.2, 0.6)
        assert row.full <= 1.02


class TestControlLatency:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig_control_latency.run(
            workloads=("PR",), latencies=(0.0, 4.0)
        )

    def test_grid_shape(self, rows):
        assert len(rows) == 4  # 1 workload x 2 schemes x 2 latencies
        assert {(r.scheme, r.latency_s) for r in rows} == {
            ("LRU", 0.0), ("LRU", 4.0), ("MRD", 0.0), ("MRD", 4.0),
        }

    def test_zero_latency_matches_instant_baseline(self, rows):
        for r in rows:
            if r.latency_s == 0.0:
                assert r.norm_jct == pytest.approx(1.0)
                assert r.stale_orders == 0

    def test_lru_is_flat_and_mrd_degrades(self, rows):
        by_cell = {(r.scheme, r.latency_s): r for r in rows}
        # LRU exchanges no distance state: latency cannot hurt it.
        assert by_cell["LRU", 4.0].norm_jct == pytest.approx(1.0)
        slow_mrd = by_cell["MRD", 4.0]
        assert slow_mrd.norm_jct >= 1.0
        assert slow_mrd.mean_order_delay == pytest.approx(4.0)
        assert slow_mrd.msgs_delivered == slow_mrd.msgs_sent

    def test_render(self, rows):
        text = fig_control_latency.render(rows)
        assert "Control-plane latency" in text and "vs instant" in text


class TestFigLoad:
    KWARGS = dict(
        rates=(0.05, 0.25), schemes=("LRU", "MRD"), num_apps=3
    )

    @pytest.fixture(scope="class")
    def rows(self):
        return fig_load.run(**self.KWARGS)

    def test_grid_shape(self, rows):
        # 2 rates x 2 schemes x 2 arbitrations, one row per cell.
        assert len(rows) == 8
        assert {(r.rate, r.scheme) for r in rows} == {
            (0.05, "LRU"), (0.05, "MRD"), (0.25, "LRU"), (0.25, "MRD"),
        }
        assert all(r.num_apps == 3 for r in rows)

    def test_deterministic_rerun(self, rows):
        assert fig_load.run(**self.KWARGS) == rows

    def test_sojourns_ordered_and_positive(self, rows):
        for r in rows:
            assert 0 < r.jct_p50 <= r.jct_p99
            assert r.makespan >= r.jct_p99
            assert 0.0 <= r.hit_ratio <= 1.0

    def test_mrd_beats_lru_on_hits(self, rows):
        by_cell = {(r.rate, r.scheme, r.arbitration): r for r in rows}
        for rate in (0.05, 0.25):
            for arb in ("static", "global-mrd"):
                assert by_cell[rate, "MRD", arb].hit_ratio >= \
                    by_cell[rate, "LRU", arb].hit_ratio

    def test_render(self, rows):
        text = fig_load.render(rows)
        assert "Offered load" in text and "global-mrd" in text


class TestFigElastic:
    KWARGS = dict(
        workloads=("KM",), churn_rates=(0.0, 0.4),
        rebalances=("drop", "migrate"),
    )

    @pytest.fixture(scope="class")
    def rows(self):
        return fig_elastic.run(**self.KWARGS)

    def test_grid_shape(self, rows):
        # Per scheme: one static row + one row per (churn, rebalance).
        assert {(r.scheme, r.churn_rate, r.rebalance) for r in rows} == {
            ("LRU", 0.0, "-"), ("LRU", 0.4, "drop"), ("LRU", 0.4, "migrate"),
            ("MRD", 0.0, "-"), ("MRD", 0.4, "drop"), ("MRD", 0.4, "migrate"),
        }

    def test_static_rows_are_their_own_baseline(self, rows):
        for r in rows:
            if r.churn_rate == 0.0:
                assert r.norm_jct == pytest.approx(1.0)
                assert r.nodes_joined == r.nodes_decommissioned == 0
                assert r.rebalanced_blocks == r.dropped_blocks == 0

    def test_churn_rows_actually_churn(self, rows):
        """The pinned seed gives every cell at one rate the same
        membership history — and at rate 0.4 on KM it is non-empty."""
        churned = [r for r in rows if r.churn_rate > 0]
        histories = {(r.nodes_joined, r.nodes_decommissioned) for r in churned}
        assert len(histories) == 1  # identical across schemes/rebalances
        joined, decommissioned = histories.pop()
        assert joined + decommissioned > 0

    def test_rebalance_accounting(self, rows):
        for r in rows:
            if r.rebalance == "drop":
                assert r.rebalanced_blocks == 0
                assert r.rebalanced_mb == 0.0
        assert sum(r.rebalanced_blocks
                   for r in rows if r.rebalance == "migrate") > 0

    def test_deterministic_rerun(self, rows):
        assert fig_elastic.run(**self.KWARGS) == rows

    def test_render(self, rows):
        text = fig_elastic.render(rows)
        assert "Elastic membership" in text and "vs static" in text


class TestCorrelations:
    def test_fig11_12_from_fig4_rows(self):
        rows = fig4.run(workloads=("CC", "DT", "PR"), cache_fractions=FAST_FRACTIONS)
        result = fig11_12.run(rows)
        assert len(result.workloads) == 3
        assert 0.0 <= result.r2_stage_distance <= 1.0
        assert 0.0 <= result.r2_refs_per_stage <= 1.0
        assert "trendline" in fig11_12.render(result)

    def test_linfit_constant_x(self):
        slope, r2 = fig11_12._linfit_r2([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        assert slope == 0.0 and r2 == 0.0
