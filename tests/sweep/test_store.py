"""Result-store persistence: atomicity, corruption handling, round trips."""

from __future__ import annotations

import json

import pytest

from repro.sweep.runner import run_cell
from repro.sweep.spec import CellSpec
from repro.sweep.store import (
    STATUS_ERROR,
    STATUS_OK,
    CellResult,
    ResultStore,
    atomic_write_text,
)


def _ok_result(fingerprint: str = "abc123") -> CellResult:
    cell = CellSpec(workload="SP", cluster="test", cache_fraction=0.4, partitions=8)
    return CellResult(
        fingerprint=fingerprint,
        spec=cell.to_dict(),
        status=STATUS_OK,
        metrics={"jct": 1.0},
        elapsed_s=0.5,
    )


class TestResultStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        cell = CellSpec(workload="SP", cluster="test", cache_fraction=0.5,
                        partitions=8)
        result = run_cell(cell)
        assert result.ok
        store.put(result)
        loaded = store.get(result.fingerprint)
        assert loaded == result
        # The lossless metrics round trip must survive the disk hop too.
        assert loaded.run_metrics().jct == result.run_metrics().jct

    def test_missing_is_none(self, tmp_path):
        assert ResultStore(tmp_path).get("deadbeef") is None

    def test_corrupt_file_ignored(self, tmp_path, caplog):
        store = ResultStore(tmp_path)
        result = _ok_result()
        store.put(result)
        store.cell_path(result.fingerprint).write_text("{truncated")
        with caplog.at_level("WARNING"):
            assert store.get(result.fingerprint) is None
        assert "recomputed" in caplog.text

    def test_fingerprint_mismatch_ignored(self, tmp_path):
        store = ResultStore(tmp_path)
        result = _ok_result(fingerprint="aaaa")
        store.put(result)
        # A file renamed (or copied) to the wrong key must not be served.
        store.cell_path("aaaa").rename(store.cell_path("bbbb"))
        assert store.get("bbbb") is None

    def test_put_is_atomic_no_temp_left_behind(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(_ok_result())
        leftovers = [p for p in store.cells_dir.iterdir() if p.suffix != ".json"]
        assert leftovers == []

    def test_payload_is_plain_json(self, tmp_path):
        store = ResultStore(tmp_path)
        result = _ok_result()
        path = store.put(result)
        data = json.loads(path.read_text())
        assert data["fingerprint"] == result.fingerprint
        assert data["status"] == "ok"
        # `cached` is runtime-only and must not leak into the file.
        assert "cached" not in data

    def test_iteration_and_len(self, tmp_path):
        store = ResultStore(tmp_path)
        assert len(store) == 0
        store.put(_ok_result("aaaa"))
        store.put(_ok_result("bbbb"))
        assert len(store) == 2
        assert {r.fingerprint for r in store} == {"aaaa", "bbbb"}

    def test_iteration_order_independent_of_write_order(self, tmp_path):
        """Resume must not depend on on-disk directory order (DET004).

        Two stores receive the same cells in opposite completion orders;
        iteration (what a resumed sweep replays) must be identical, and
        sorted, for both.
        """
        prints = ["cafe", "0a0a", "beef", "f00d", "1234"]
        forward = ResultStore(tmp_path / "fwd")
        backward = ResultStore(tmp_path / "bwd")
        for fp in prints:
            forward.put(_ok_result(fp))
        for fp in reversed(prints):
            backward.put(_ok_result(fp))
        assert forward.fingerprints() == backward.fingerprints() == sorted(prints)
        assert [r.fingerprint for r in forward] == \
            [r.fingerprint for r in backward] == sorted(prints)

    def test_profile_paths_are_isolated(self, tmp_path):
        store = ResultStore(tmp_path)
        a = store.profile_path("aaaa")
        b = store.profile_path("bbbb")
        assert a != b
        assert a.parent.is_dir() and b.parent.is_dir()


class TestCellResult:
    def test_error_result_has_no_metrics(self):
        result = CellResult(
            fingerprint="ffff", spec={}, status=STATUS_ERROR,
            error={"type": "ValueError", "message": "boom"},
        )
        assert not result.ok
        assert result.describe_error() == "ValueError: boom"
        with pytest.raises(ValueError, match="no metrics"):
            result.run_metrics()

    def test_json_round_trip(self):
        result = _ok_result()
        assert CellResult.from_json(result.to_json()) == result


class TestReset:
    def test_reset_profiles_purges_the_cell_directory(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.profile_path("aaaa")
        path.write_text("{}")
        assert store.reset_profiles("aaaa") is True
        assert not path.parent.exists()
        # Other cells' profiles are untouched.
        other = store.profile_path("bbbb")
        other.write_text("{}")
        store.reset_profiles("aaaa")
        assert other.exists()

    def test_reset_profiles_without_directory_is_noop(self, tmp_path):
        assert ResultStore(tmp_path).reset_profiles("nope") is False


class TestContentDigest:
    def test_equal_stores_digest_equal(self, tmp_path):
        a, b = ResultStore(tmp_path / "a"), ResultStore(tmp_path / "b")
        for store in (a, b):
            store.put(_ok_result("aaaa"))
            store.put(_ok_result("bbbb"))
        assert a.content_digest() == b.content_digest()

    def test_digest_ignores_wall_clock_elapsed(self, tmp_path):
        """elapsed_s varies per machine; it must not split identity."""
        a, b = ResultStore(tmp_path / "a"), ResultStore(tmp_path / "b")
        fast, slow = _ok_result("aaaa"), _ok_result("aaaa")
        fast.elapsed_s, slow.elapsed_s = 0.01, 99.9
        a.put(fast)
        b.put(slow)
        assert a.content_digest() == b.content_digest()

    def test_digest_sees_metric_changes(self, tmp_path):
        a, b = ResultStore(tmp_path / "a"), ResultStore(tmp_path / "b")
        a.put(_ok_result("aaaa"))
        changed = _ok_result("aaaa")
        changed.metrics = {"jct": 2.0}
        b.put(changed)
        assert a.content_digest() != b.content_digest()

    def test_digest_independent_of_write_order(self, tmp_path):
        a, b = ResultStore(tmp_path / "a"), ResultStore(tmp_path / "b")
        a.put(_ok_result("aaaa"))
        a.put(_ok_result("bbbb"))
        b.put(_ok_result("bbbb"))
        b.put(_ok_result("aaaa"))
        assert a.content_digest() == b.content_digest()

    def test_empty_store_has_a_digest(self, tmp_path):
        assert len(ResultStore(tmp_path).content_digest()) == 64


class TestAtomicWriteText:
    """The shared tmp+os.replace publisher behind every final-path
    write in the store."""

    def test_writes_content_and_returns_the_path(self, tmp_path):
        target = tmp_path / "deep" / "out.json"
        result = atomic_write_text(target, '{"a": 1}')
        assert result == target
        assert target.read_text() == '{"a": 1}'

    def test_no_temp_files_left_behind(self, tmp_path):
        atomic_write_text(tmp_path / "out.txt", "x" * 4096)
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_overwrite_is_all_or_nothing(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "old content")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_failed_write_cleans_up_and_preserves_the_old_file(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "survivor")

        import os as os_module

        def exploding_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os_module, "replace", exploding_replace)
        with pytest.raises(OSError):
            atomic_write_text(target, "doomed")
        monkeypatch.undo()
        assert target.read_text() == "survivor"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_put_keeps_the_stored_cell_whole(self, tmp_path, monkeypatch):
        # A put that dies before publishing must leave a resumable store:
        # the cell's previous bytes, and no temp sibling in cells/.
        store = ResultStore(tmp_path)
        path = store.put(_ok_result("abc123"))
        old_bytes = path.read_bytes()
        newer = _ok_result("abc123")
        newer.metrics = {"jct": 2.0}

        import os as os_module

        def exploding_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os_module, "replace", exploding_replace)
        with pytest.raises(OSError):
            store.put(newer)
        monkeypatch.undo()
        assert path.read_bytes() == old_bytes
        assert [p.name for p in store.cells_dir.iterdir()] == [path.name]
