"""End-to-end tests for the ``repro trace`` CLI subcommands."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.sweep import CellSpec
from repro.trace.events import read_jsonl

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "eventlogs"
ITERATIVE = str(FIXTURES / "iterative_ml.jsonl")
LINEAR = str(FIXTURES / "linear_agg.jsonl")


class TestIngest:
    def test_summarizes_fixture(self, capsys):
        assert main(["trace", "ingest", ITERATIVE]) == 0
        out = capsys.readouterr().out
        assert "IterativeML" in out
        assert "jobs         3" in out

    def test_writes_profile_store(self, capsys, tmp_path):
        store = tmp_path / "profiles.json"
        assert main([
            "trace", "ingest", ITERATIVE, "--profile-store", str(store),
        ]) == 0
        assert "IterativeML" in json.loads(store.read_text())
        assert "references" in capsys.readouterr().out

    def test_bad_log_exits_cleanly(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"Event": "SparkListenerMystery"}\n')
        with pytest.raises(SystemExit, match="ingest failed"):
            main(["trace", "ingest", str(bad)])


class TestReplay:
    def test_replay_under_lru_and_mrd(self, capsys):
        for policy in ("lru", "mrd"):
            assert main([
                "trace", "replay", ITERATIVE,
                "--policy", policy, "--cluster", "test",
            ]) == 0
            out = capsys.readouterr().out
            assert "source=eventlog" in out
            assert "JCT" in out

    def test_scheme_flag_is_alias_for_policy(self, capsys):
        assert main([
            "trace", "replay", ITERATIVE, "--scheme", "mrd", "--cluster", "test",
        ]) == 0
        assert "scheme=MRD" in capsys.readouterr().out

    def test_writes_jsonl_and_chrome(self, capsys, tmp_path):
        out_jsonl = tmp_path / "run.jsonl"
        out_chrome = tmp_path / "run.chrome.json"
        assert main([
            "trace", "replay", ITERATIVE, "--policy", "mrd", "--cluster", "test",
            "-o", str(out_jsonl), "--chrome", str(out_chrome),
        ]) == 0
        assert out_jsonl.exists()
        chrome = json.loads(out_chrome.read_text())
        assert chrome["traceEvents"]

    def test_unknown_policy_exits_cleanly(self):
        with pytest.raises(SystemExit, match="replay failed"):
            main(["trace", "replay", ITERATIVE, "--policy", "arc"])


class TestDiff:
    def _replayed(self, tmp_path, name, policy):
        path = tmp_path / name
        assert main([
            "trace", "replay", LINEAR, "--policy", policy, "--cluster", "test",
            "-o", str(path),
        ]) == 0
        return str(path)

    def test_identical_replays_report_zero_divergence(self, capsys, tmp_path):
        a = self._replayed(tmp_path, "a.jsonl", "mrd")
        b = self._replayed(tmp_path, "b.jsonl", "mrd")
        capsys.readouterr()
        assert main(["trace", "diff", a, b]) == 0
        assert "identical (zero divergence)" in capsys.readouterr().out

    def test_divergent_traces_report_first_difference(self, capsys, tmp_path):
        a = self._replayed(tmp_path, "a.jsonl", "lru")
        b = self._replayed(tmp_path, "b.jsonl", "mrd")
        capsys.readouterr()
        assert main(["trace", "diff", a, b]) == 1
        assert "diverge at event" in capsys.readouterr().out

    def test_missing_file_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="diff failed"):
            main(["trace", "diff", str(tmp_path / "no.jsonl"), str(tmp_path / "pe.jsonl")])


class TestRecord:
    def test_record_workload_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "km.jsonl"
        assert main([
            "trace", "record", "KM", "--scheme", "mrd", "--cluster", "test",
            "--partitions", "4", "-o", str(out),
        ]) == 0
        assert "recorded" in capsys.readouterr().out
        # The recorded trace is itself replayable (meta carries the
        # workload, cluster and cache size).
        assert main(["trace", "replay", str(out), "--policy", "mrd"]) == 0
        assert "source=recorded" in capsys.readouterr().out

    def test_meta_header_is_the_runs_cell(self, capsys, tmp_path):
        out = tmp_path / "km.jsonl"
        assert main([
            "trace", "record", "KM", "--scheme", "mrd", "--cluster", "test",
            "--partitions", "4", "--control-plane", "rpc",
            "--control-latency", "1.0", "-o", str(out),
        ]) == 0
        meta, _ = read_jsonl(out)
        assert meta.pop("source") == "recorded"
        cell = CellSpec.from_dict(meta)
        assert cell.to_dict() == meta
        assert (cell.partitions, cell.control_plane, cell.control_latency) == (4, "rpc", 1.0)

    def test_rpc_recording_replays_identically(self, capsys, tmp_path):
        """A bare replay reruns the recorded cell on its own control plane."""
        recorded, replayed = tmp_path / "km.jsonl", tmp_path / "again.jsonl"
        assert main([
            "trace", "record", "KM", "--partitions", "8", "--scheme", "MRD",
            "--cluster", "test", "--control-plane", "rpc",
            "--control-latency", "1.0", "--control-loss", "0.05",
            "-o", str(recorded),
        ]) == 0
        assert "control[rpc]" in capsys.readouterr().out
        assert main(["trace", "replay", str(recorded), "-o", str(replayed)]) == 0
        assert "scheme=MRD" in capsys.readouterr().out
        assert main(["trace", "diff", str(recorded), str(replayed)]) == 0

    def test_replay_of_a_replay_keeps_the_workload_build(self, capsys, tmp_path):
        paths = [tmp_path / f"run{i}.jsonl" for i in range(3)]
        assert main([
            "trace", "record", "KM", "--partitions", "8", "--scheme", "MRD",
            "--cluster", "test", "-o", str(paths[0]),
        ]) == 0
        for source, target in zip(paths, paths[1:]):
            assert main(["trace", "replay", str(source), "-o", str(target)]) == 0
        assert read_jsonl(paths[2])[0]["partitions"] == 8
        capsys.readouterr()
        assert main(["trace", "diff", str(paths[0]), str(paths[2])]) == 0

    def test_replay_cache_fraction_overrides_the_recorded_cache(
        self, capsys, tmp_path
    ):
        out = tmp_path / "km.jsonl"
        assert main([
            "trace", "record", "KM", "--scheme", "mrd", "--cluster", "test",
            "--partitions", "4", "-o", str(out),
        ]) == 0
        capsys.readouterr()

        def cache_mb(*flags):
            assert main(["trace", "replay", str(out), *flags]) == 0
            header = capsys.readouterr().out.splitlines()[0]
            return float(header.split("cache=")[1].split(" MB")[0])

        bare = cache_mb()
        assert cache_mb("--cache-fraction", "0.1") < bare
        # An absolute size still wins over a fraction.
        assert cache_mb("--cache-fraction", "0.1", "--cache-mb", "50") == 50.0

    def test_bare_replay_keeps_the_recorded_fraction(self, capsys, tmp_path):
        # Unset, --cache-fraction must not fall back to the event-log
        # default of 0.5: a recorded trace replays at its own fraction.
        out = tmp_path / "km.jsonl"
        assert main([
            "trace", "record", "KM", "--scheme", "mrd", "--cluster", "test",
            "--partitions", "4", "--cache-fraction", "0.3", "-o", str(out),
        ]) == 0
        capsys.readouterr()

        def header(*flags):
            assert main(["trace", "replay", str(out), *flags]) == 0
            return capsys.readouterr().out.splitlines()[0]

        bare = header()
        assert bare == header("--cache-fraction", "0.3")
        assert bare != header("--cache-fraction", "0.5")

    def test_replay_rejects_a_nonpositive_cache_fraction(self):
        with pytest.raises(
            SystemExit, match="replay failed: cache_fraction must be positive"
        ):
            main(["trace", "replay", ITERATIVE, "--cache-fraction", "-1"])

    def test_replay_rejects_a_nonpositive_cache_mb(self):
        with pytest.raises(
            SystemExit, match="replay failed: cache_mb must be positive"
        ):
            main(["trace", "replay", ITERATIVE, "--cache-mb", "0"])

    def test_record_unknown_workload_exits_cleanly(self):
        with pytest.raises(SystemExit, match="record failed: unknown workload"):
            main(["trace", "record", "NOPE"])
