"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.sweep.schemes import SCHEME_SPECS


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "PR"])
        assert args.scheme == "MRD"
        assert args.cluster == "main"
        assert args.cache_fraction == 0.5
        assert args.control_plane == "instant"
        assert args.control_latency is None

    def test_control_plane_choices_restricted(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "PR", "--control-plane", "telepathy"])

    def test_elastic_defaults(self):
        args = build_parser().parse_args(["run", "PR"])
        assert args.placement == "stride"
        assert args.churn_rate == 0.0
        assert args.churn_seed == 0
        assert args.rebalance == "drop"

    def test_elastic_choices_restricted(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "PR", "--placement", "consistent"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "PR", "--rebalance", "replicate"])


class TestCommands:
    def test_workloads_lists_all(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("KM", "SCC", "Sort", "HiKMeans"):
            assert name in out

    def test_run_prints_summary(self, capsys):
        assert main(["run", "SP", "--scheme", "LRU", "--partitions", "16"]) == 0
        out = capsys.readouterr().out
        assert "LRU" in out and "JCT" in out

    def test_run_verbose_prints_stages(self, capsys):
        assert main(["run", "SP", "--scheme", "MRD", "--partitions", "16", "-v"]) == 0
        assert "stage seq=" in capsys.readouterr().out

    def test_run_absolute_cache(self, capsys):
        assert main(["run", "SP", "--cache-mb", "16", "--partitions", "16"]) == 0
        assert "cache=16.0 MB/node" in capsys.readouterr().out

    def test_run_adhoc_mode(self, capsys):
        assert main(["run", "SP", "--mode", "adhoc", "--partitions", "16"]) == 0
        assert "MRD-adhoc" in capsys.readouterr().out

    def test_run_job_metric(self, capsys):
        assert main(["run", "SP", "--metric", "job", "--partitions", "16"]) == 0
        assert "MRD-jobdist" in capsys.readouterr().out

    def test_mode_rejected_for_non_mrd_scheme(self):
        with pytest.raises(SystemExit, match="--mode adhoc .* not LRU"):
            main(["run", "SP", "--scheme", "LRU", "--mode", "adhoc"])

    def test_metric_rejected_for_non_mrd_scheme(self):
        with pytest.raises(SystemExit, match="--metric job .* not Belady"):
            main(["run", "SP", "--scheme", "belady", "--metric", "job"])

    def test_sweep(self, capsys):
        assert main([
            "sweep", "SP", "--schemes", "LRU,MRD", "--fractions", "0.3,0.6",
        ]) == 0
        out = capsys.readouterr().out
        assert "Sweep: SP" in out
        assert out.count("MRD") >= 2

    def test_sweep_parallel_with_store_caches(self, tmp_path, capsys):
        args = [
            "sweep", "SP", "--schemes", "LRU,MRD", "--fractions", "0.3,0.6",
            "--partitions", "8", "--jobs", "2", "--store", str(tmp_path),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "4 computed, 0 cached" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "0 computed, 4 cached" in second
        # The tables themselves must be identical run-to-run.
        assert first.split("cells:")[0] == second.split("cells:")[0]

    def test_sweep_progress_goes_to_stderr(self, tmp_path, capsys):
        assert main([
            "sweep", "SP", "--schemes", "LRU", "--fractions", "0.5",
            "--partitions", "8", "--store", str(tmp_path),
        ]) == 0
        captured = capsys.readouterr()
        assert "[1/1]" in captured.err
        assert "[1/1]" not in captured.out

    def test_sweep_multiple_workloads(self, capsys):
        assert main([
            "sweep", "SP", "TC", "--schemes", "LRU", "--fractions", "0.5",
            "--partitions", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "Sweep: SP on main" in out and "Sweep: TC on main" in out

    def test_sweep_scheduler_equivalence(self, capsys):
        assert main([
            "sweep", "SP", "--schemes", "LRU,MRD", "--fractions", "0.4",
            "--partitions", "8", "--schedulers", "event,reference",
        ]) == 0
        out = capsys.readouterr().out
        assert "scheduler equivalence" in out and "agree" in out

    def test_sweep_error_cell_exits_nonzero(self, capsys):
        assert main([
            "sweep", "SP", "--schemes", "LRU", "--fractions", "0.5",
            "--partitions", "8", "--scale", "-1",
        ]) == 1
        out = capsys.readouterr().out
        assert "ERROR" in out and "FAILED" in out

    def test_sweep_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "grid.json"
        spec.write_text(
            '{"workloads": ["SP"], "schemes": ["LRU", "MRD"], '
            '"fractions": [0.4], "partitions": 8}'
        )
        assert main(["sweep", "--spec", str(spec)]) == 0
        assert "Sweep: SP" in capsys.readouterr().out

    def test_sweep_bad_spec_exits(self, tmp_path):
        spec = tmp_path / "grid.json"
        spec.write_text('{"workloads": ["SP"], "warp": 9}')
        with pytest.raises(SystemExit, match="sweep failed"):
            main(["sweep", "--spec", str(spec)])

    def test_sweep_unknown_scheme_exits(self):
        with pytest.raises(SystemExit, match="unknown scheme"):
            main(["sweep", "SP", "--schemes", "MAGIC"])

    def test_sweep_unknown_workload_exits(self):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["sweep", "NOPE", "--schemes", "LRU"])

    def test_sweep_without_workloads_exits(self):
        with pytest.raises(SystemExit, match="workload names"):
            main(["sweep"])

    def test_experiment_store_rejected_for_tables(self, tmp_path):
        with pytest.raises(SystemExit, match="does not use a result store"):
            main(["experiment", "table1", "--store", str(tmp_path)])

    def test_experiment_table3(self, capsys):
        assert main(["experiment", "table3"]) == 0
        assert "Table 3" in capsys.readouterr().out

    def test_unknown_scheme_exits(self):
        with pytest.raises(SystemExit, match="unknown scheme"):
            main(["run", "SP", "--scheme", "MAGIC"])

    def test_unknown_cluster_exits(self):
        with pytest.raises(SystemExit, match="unknown cluster"):
            main(["run", "SP", "--cluster", "moon"])

    def test_unknown_experiment_exits(self):
        with pytest.raises(SystemExit, match="unknown experiment"):
            main(["experiment", "fig99"])

    def test_dot_lineage(self, capsys):
        assert main(["dot", "SP", "--view", "lineage"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph lineage")

    def test_dot_stages_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "pr.dot"
        assert main(["dot", "SP", "--view", "stages", "-o", str(out_file)]) == 0
        assert out_file.read_text().startswith("digraph stages")
        assert "written" in capsys.readouterr().out

    def test_dot_no_skipped(self, capsys):
        assert main(["dot", "CC", "--no-skipped"]) == 0
        assert "(skipped)" not in capsys.readouterr().out

    def test_run_rpc_control_plane_prints_counters(self, capsys):
        assert main([
            "run", "SP", "--partitions", "16",
            "--control-plane", "rpc", "--control-latency", "2.0",
        ]) == 0
        out = capsys.readouterr().out
        assert "control[rpc]" in out and "delivered" in out

    def test_run_instant_plane_hides_control_line(self, capsys):
        assert main(["run", "SP", "--partitions", "16"]) == 0
        assert "control[" not in capsys.readouterr().out

    def test_run_bad_control_config_exits(self):
        with pytest.raises(SystemExit, match="bad control-plane config"):
            main(["run", "SP", "--control-plane", "rpc",
                  "--control-loss", "1.5"])

    def test_run_with_churn_prints_membership_line(self, capsys):
        assert main([
            "run", "KM", "--partitions", "8",
            "--placement", "rendezvous",
            "--churn-rate", "0.4", "--rebalance", "migrate",
        ]) == 0
        out = capsys.readouterr().out
        assert "membership" in out and "migrated=" in out

    def test_run_static_hides_membership_line(self, capsys):
        assert main(["run", "SP", "--partitions", "16"]) == 0
        assert "membership" not in capsys.readouterr().out

    def test_run_bad_churn_config_exits(self):
        with pytest.raises(SystemExit, match="bad churn config"):
            main(["run", "SP", "--churn-rate", "1.5"])

    def test_run_unknown_workload_exits_cleanly(self):
        with pytest.raises(SystemExit, match="run failed: unknown workload 'NOPE'"):
            main(["run", "NOPE"])

    @pytest.mark.parametrize("flags", [
        ["--cache-fraction", "-1"], ["--cache-fraction", "0"], ["--cache-mb", "0"],
    ])
    def test_run_rejects_a_nonpositive_cache(self, flags):
        with pytest.raises(SystemExit, match="run failed: cache_.* must be positive"):
            main(["run", "KM", *flags])

    @pytest.mark.parametrize("flags", [
        ["--cache-fraction", "-1"], ["--cache-fraction", "nan"], ["--cache-mb", "0"],
    ])
    def test_mt_run_rejects_a_nonpositive_cache(self, flags):
        with pytest.raises(SystemExit, match="mt run failed: cache_.* must be positive"):
            main(["mt", "run", "KM", "--partitions", "4", "--cluster", "test", *flags])

    def test_sweep_rejects_a_nonpositive_fraction(self):
        with pytest.raises(SystemExit, match="sweep failed: cache_fraction must be positive"):
            main(["sweep", "SP", "--fractions", "0.4,-0.5"])

    def test_run_is_the_sweep_cell_with_the_same_fields(self, capsys):
        """``repro run`` prints what ``run_cell`` computes for its cell."""
        from repro.sweep import CellSpec, SchemeSpec, run_cell

        assert main([
            "run", "PR", "--cluster", "test", "--partitions", "4",
            "--mode", "adhoc", "--placement", "rendezvous",
            "--churn-rate", "0.4", "--churn-seed", "3",
            "--control-plane", "rpc", "--control-loss", "0.1",
            "--control-seed", "5",
        ]) == 0
        out = capsys.readouterr().out
        cell = CellSpec(
            workload="PR", scheme_spec=SchemeSpec("MRD", mode="adhoc"),
            cluster="test", partitions=4, placement="rendezvous",
            churn_rate=0.4, churn_seed=3, control_plane="rpc",
            control_loss=0.1, control_seed=5,
        )
        metrics = run_cell(cell).run_metrics()
        assert metrics.nodes_joined + metrics.nodes_decommissioned > 0
        assert metrics.control.dropped > 0
        assert out.splitlines()[1] == metrics.summary()

    def test_experiment_control_latency_registered(self, capsys):
        assert main(["experiment", "fig_control_latency"]) == 0
        assert "Control-plane latency" in capsys.readouterr().out

    def test_every_scheme_name_runs(self, capsys):
        for name in SCHEME_SPECS:
            assert main([
                "run", "SP", "--scheme", name, "--partitions", "8",
                "--cache-fraction", "0.4",
            ]) == 0

    @pytest.mark.parametrize("name", sorted(SCHEME_SPECS))
    def test_scheme_names_accepted_in_any_case(self, name, capsys):
        """``run``, ``trace record`` and ``mt run`` take every registered
        name, in its own spelling and in lower case, and build the same
        scheme for both."""
        small = ["SP", "--cluster", "test", "--partitions", "4"]
        shown = f" {SCHEME_SPECS[name].build().name} "
        for spelling in (name, name.lower()):
            assert main(["run", *small, "--scheme", spelling]) == 0
            assert shown in capsys.readouterr().out
            assert main(["trace", "record", *small, "--scheme", spelling]) == 0
            assert shown in capsys.readouterr().out
            assert main(["mt", "run", *small, "--schemes", spelling]) == 0
            assert shown in capsys.readouterr().out

    def test_mode_and_metric_override_only_when_set(self, capsys):
        assert main(["run", "SP", "--scheme", "MRD-adhoc", "--metric", "job",
                     "--cluster", "test", "--partitions", "4"]) == 0
        assert " MRD-jobdist-adhoc " in capsys.readouterr().out
        assert main(["run", "SP", "--scheme", "MRD-evict", "--mode", "adhoc",
                     "--cluster", "test", "--partitions", "4"]) == 0
        assert " MRD-evict-adhoc " in capsys.readouterr().out


class TestLintCommand:
    """``repro lint``: the determinism-contract analyzer as a subcommand."""

    BAD = "import random\nx = random.random()\n"
    OK = '"""Clean module."""\n\nX = 1\n'

    @staticmethod
    def _file(tmp_path, source):
        path = tmp_path / "mod.py"
        path.write_text(source)
        return str(path)

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        assert main(["lint", self._file(tmp_path, self.OK)]) == 0
        assert "0 finding(s) in 1 file" in capsys.readouterr().out

    def test_findings_exit_nonzero(self, tmp_path, capsys):
        assert main(["lint", self._file(tmp_path, self.BAD)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "mod.py:2:" in out

    def test_json_format(self, tmp_path, capsys):
        import json

        assert main([
            "lint", self._file(tmp_path, self.BAD), "--format", "json",
        ]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"version", "ok", "files_checked", "findings"}
        assert payload["version"] == 2
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "DET001"

    def test_select_and_ignore(self, tmp_path):
        bad = self._file(tmp_path, self.BAD)
        assert main(["lint", bad, "--select", "MUT001"]) == 0
        assert main(["lint", bad, "--ignore", "DET001"]) == 0
        assert main(["lint", bad, "--select", "DET001,MUT001"]) == 1

    def test_unknown_rule_exits_with_message(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown rule"):
            main(["lint", self._file(tmp_path, self.OK), "--select", "NOPE"])

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        rule_ids = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert rule_ids == ["DET001", "DET002", "DET003", "DET004", "MUT001", "RNG101"]

    def test_missing_path_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="lint failed"):
            main(["lint", str(tmp_path / "absent.py")])

    def test_module_entry_point_matches_subcommand(self, tmp_path):
        from repro.analysis.cli import main as lint_main

        assert lint_main([self._file(tmp_path, self.BAD)]) == 1
        assert lint_main([self._file(tmp_path, self.OK)]) == 0
