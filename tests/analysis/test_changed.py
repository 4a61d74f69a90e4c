"""``repro lint --changed``: git-diff resolution and file selection.

Each test builds a throwaway git repository (so the analyzer's own
repo state never leaks in) and drives the resolver through real git
metadata; the no-git fallback is exercised in a plain directory.
"""

from __future__ import annotations

import subprocess

import pytest

from repro.analysis.changed import (
    changed_files,
    merge_base,
    resolve_changed_paths,
)
from repro.analysis.runner import LintConfig, lint_paths

PKG = {
    "pkg/__init__.py": "",
    "pkg/core.py": "def f():\n    return 1\n",
    "pkg/user.py": (
        "from pkg.core import f\n\n\ndef g():\n    return f() + 1\n"
    ),
    "pkg/island.py": "def z():\n    return 3\n",
}


def _git(repo, *args):
    subprocess.run(
        ["git", "-C", str(repo), *args],
        check=True, capture_output=True, text=True,
        env={
            "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
            "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t",
            "HOME": str(repo),
        },
    )


@pytest.fixture
def repo(tmp_path, monkeypatch):
    for rel, source in PKG.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    _git(tmp_path, "init", "-q", "-b", "main")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_no_git_metadata_falls_back_to_none(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("GIT_DIR", str(tmp_path / "nowhere"))
    assert changed_files() is None
    assert resolve_changed_paths(["."]) is None


def test_clean_tree_changes_nothing(repo):
    assert changed_files(base="HEAD") == []
    assert resolve_changed_paths(["pkg"], base="HEAD") == []


def test_one_file_diff_selects_only_that_file(repo):
    (repo / "pkg" / "core.py").write_text(
        "import random\n\n\ndef f():\n    return random.random()\n"
    )
    (repo / "script.py").write_text("X = 1\n")
    assert changed_files(base="HEAD") == ["pkg/core.py", "script.py"]
    selected = resolve_changed_paths(["pkg"], base="HEAD")
    # Not its importer user.py, the untouched island module, nor the
    # changed file outside the lint roots.
    assert [p.as_posix() for p in selected] == ["pkg/core.py"]


def test_changed_run_agrees_with_the_full_run(repo):
    (repo / "pkg" / "core.py").write_text(
        "import random\n\n\ndef f():\n    return random.random()\n"
    )
    config = LintConfig(scoped=False)
    full = lint_paths(["pkg"], config)
    scoped = lint_paths(resolve_changed_paths(["pkg"], base="HEAD"), config)
    assert [f.render() for f in scoped.findings] == [
        f.render() for f in full.findings
    ]
    assert scoped.files_checked < full.files_checked


def test_untracked_files_count_as_changed(repo):
    (repo / "pkg" / "fresh.py").write_text("def q():\n    return 9\n")
    assert changed_files(base="HEAD") == ["pkg/fresh.py"]


def test_non_python_changes_are_not_linted(repo):
    (repo / "pkg" / "notes.md").write_text("# notes\n")
    (repo / "pkg" / "data.json").write_text("{}\n")
    assert changed_files(base="HEAD") == []
    assert resolve_changed_paths(["pkg"], base="HEAD") == []


def test_deleted_files_are_excluded(repo):
    (repo / "pkg" / "island.py").unlink()
    assert changed_files(base="HEAD") == []


def test_unparseable_changed_file_still_selected(repo):
    (repo / "pkg" / "broken.py").write_text("def oops(:\n")
    selected = resolve_changed_paths(["pkg"], base="HEAD")
    assert [p.name for p in selected] == ["broken.py"]
    result = lint_paths(selected)
    assert any(f.rule == "PARSE" for f in result.findings)


def test_explicit_base_ref_wins(repo):
    (repo / "pkg" / "core.py").write_text("def f():\n    return 2\n")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "edit core")
    # Against HEAD the tree is clean; against the first commit the edit
    # shows up.
    assert changed_files(base="HEAD") == []
    assert changed_files(base="HEAD~1") == ["pkg/core.py"]
    assert merge_base("HEAD~1") is not None


def test_merge_base_auto_detection_survives_missing_refs(repo):
    # No upstream and no origin/* in this throwaway repo: detection
    # falls through to the local main ref rather than erroring.
    assert merge_base() is not None
