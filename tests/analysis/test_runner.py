"""Runner plumbing: file discovery, rule selection, reporters."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import get_rule, lint_paths
from repro.analysis.reporters import render_github, render_json, render_text
from repro.analysis.runner import (
    PARSE_ERROR_RULE,
    LintConfig,
    iter_python_files,
    lint_file,
)

FIXTURES = Path(__file__).parent / "fixtures"
BAD_SOURCE = "import random\nx = random.random()\ny = random.randint(1, 6)\n"


def _tree(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("B = 2\n")
    (tmp_path / "pkg" / "a.py").write_text("A = 1\n")
    (tmp_path / "top.py").write_text(BAD_SOURCE)
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "junk.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    return tmp_path


def test_iter_python_files_sorted_and_skips_cache_dirs(tmp_path):
    files = iter_python_files([_tree(tmp_path)])
    assert [f.name for f in files] == ["a.py", "b.py", "top.py"]
    assert files == sorted(files)


def test_iter_python_files_dedupes_overlapping_paths(tmp_path):
    root = _tree(tmp_path)
    files = iter_python_files([root, root / "pkg", root / "pkg" / "a.py"])
    assert len(files) == len({f.resolve() for f in files}) == 3


def test_iter_python_files_missing_path_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        iter_python_files([tmp_path / "absent.py"])


def test_lint_paths_counts_files_and_findings(tmp_path):
    result = lint_paths([_tree(tmp_path)])
    assert result.files_checked == 3
    assert len(result.findings) == 2  # the two draws in top.py
    assert not result.ok


def test_select_restricts_rules(tmp_path):
    root = _tree(tmp_path)
    result = lint_paths([root], LintConfig(select=["MUT001"]))
    assert result.findings == [] and result.ok


def test_ignore_drops_rules(tmp_path):
    result = lint_paths([_tree(tmp_path)], LintConfig(ignore=["DET001"]))
    assert result.findings == []


def test_unknown_rule_id_rejected(tmp_path):
    with pytest.raises(ValueError, match="NOPE"):
        lint_paths([_tree(tmp_path)], LintConfig(select=["NOPE"]))


def test_syntax_error_becomes_parse_finding(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def broken(:\n")
    result = lint_paths([path])
    assert len(result.findings) == 1
    assert result.findings[0].rule == PARSE_ERROR_RULE
    assert "does not parse" in result.findings[0].message


def test_text_reporter_mentions_findings_and_summary(tmp_path):
    root = _tree(tmp_path)
    text = render_text(lint_paths([root]))
    assert "2 finding(s)" in text and "3 files" in text
    assert "DET001" in text

    clean = render_text(lint_paths([root], LintConfig(ignore=["DET001"])))
    assert clean == "0 finding(s) in 3 files"


def test_json_reporter_round_trips(tmp_path):
    result = lint_paths([_tree(tmp_path)])
    payload = json.loads(render_json(result))
    assert payload["files_checked"] == 3
    assert payload["ok"] is False
    assert len(payload["findings"]) == 2
    first = payload["findings"][0]
    assert {"path", "line", "col", "rule", "message"} <= set(first)


def test_github_reporter_emits_error_annotations(tmp_path):
    result = lint_paths([_tree(tmp_path)])
    report = render_github(result)
    errors = [ln for ln in report.splitlines() if ln.startswith("::error ")]
    assert len(errors) == 2
    assert "file=" in errors[0] and "line=" in errors[0]
    assert "title=repro-lint DET001" in errors[0]
    assert report.splitlines()[-1].startswith("2 finding(s)")


def test_github_reporter_clean_run_and_escapes(tmp_path):
    clean = lint_paths([_tree(tmp_path)], LintConfig(ignore=["DET001"]))
    assert render_github(clean) == "0 finding(s) in 3 files"
    # Workflow-command data escaping: a message containing % or newlines
    # must not break the annotation line.
    from repro.analysis.reporters import _annotation_escape

    assert _annotation_escape("50% a\r\nb") == "50%25 a%0D%0Ab"


@pytest.mark.parametrize(
    "rule_id", ["DET001", "DET002", "DET003", "DET004", "MUT001", "RNG101"]
)
def test_lint_paths_agrees_with_lint_file(rule_id):
    # Both entry points run the same per-module pass: a directory walk
    # must report exactly what linting the file on its own reports.
    bad = FIXTURES / f"{rule_id.lower()}_bad.py"
    alone = lint_file(bad, [get_rule(rule_id)], scoped=False)
    walked = lint_paths(
        [FIXTURES], LintConfig(select=[rule_id], scoped=False)
    ).findings
    assert alone
    assert [f for f in walked if f.path.endswith(bad.name)] == alone
