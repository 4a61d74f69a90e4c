"""Text and JSON reporters for lint results."""

from __future__ import annotations

import json

from repro.analysis.runner import LintResult

REPORT_VERSION = 2


def _summary(result: LintResult) -> str:
    noun = "file" if result.files_checked == 1 else "files"
    return f"{len(result.findings)} finding(s) in {result.files_checked} {noun}"


def render_text(result: LintResult) -> str:
    """Human-oriented report: one ``path:line:col: RULE message`` per line."""
    lines = [finding.render() for finding in result.findings]
    lines.append(_summary(result))
    return "\n".join(lines)


def _annotation_escape(value: str) -> str:
    """GitHub workflow-command data escaping (%, CR, LF)."""
    return (
        value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )


def render_github(result: LintResult) -> str:
    """GitHub Actions error annotations: findings land on the PR diff.

    One ``::error`` workflow command per finding.  The trailing summary
    line is plain text.
    """
    lines = []
    for finding in result.findings:
        lines.append(
            f"::error file={finding.path},line={finding.line},"
            f"col={finding.col},title=repro-lint {finding.rule}::"
            f"{_annotation_escape(finding.message)}"
        )
    lines.append(_summary(result))
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Machine-oriented report (stable key order, one JSON object)."""
    payload = {
        "version": REPORT_VERSION,
        "ok": result.ok,
        "files_checked": result.files_checked,
        "findings": [finding.to_json() for finding in result.findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
