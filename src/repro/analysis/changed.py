"""Git-diff-scoped lint runs: the ``repro lint --changed`` resolver.

Pre-commit wants lint latency proportional to the diff, not the repo.
Every rule checks one module at a time, so linting only the changed
files finds exactly what a full run finds in them.

The changed set itself comes from git, merge-base aware: an explicit
``--changed-base REF`` wins, else the branch's upstream, else
``origin/<default>``, else ``HEAD`` (uncommitted work only).  Untracked
python files count as changed.  When git is unavailable — no binary, no
repository, a timeout — every resolver here returns ``None`` and the
caller falls back to the full tree: degrading to *more* linting is the
only safe direction.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

from repro.analysis.runner import _relpath, iter_python_files

#: Candidate merge-base refs, tried in order after ``@{upstream}``.
FALLBACK_REFS = ("origin/main", "origin/master", "main", "master")


def _git(args: list[str]) -> str | None:
    """stdout of ``git <args>`` or ``None`` on any failure."""
    try:
        proc = subprocess.run(
            ["git", *args],
            capture_output=True, text=True, check=False, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout


def merge_base(base: str | None = None) -> str | None:
    """Ref to diff against: merge-base of HEAD and the comparison branch.

    ``base=None`` auto-detects: the branch upstream when set, then the
    conventional default branches.  Returns ``None`` when nothing
    resolves (fresh repo, detached orphan) — callers then diff against
    ``HEAD``.
    """
    candidates = [base] if base is not None else ["@{upstream}", *FALLBACK_REFS]
    for candidate in candidates:
        out = _git(["merge-base", "HEAD", candidate])
        if out is not None and out.strip():
            return out.strip()
    return None


def changed_files(base: str | None = None) -> list[str] | None:
    """Changed + untracked ``.py`` paths (cwd-relative, sorted).

    ``None`` means git is unavailable and the caller should lint the
    full tree.  Deleted files are excluded (nothing left to lint).
    """
    toplevel = _git(["rev-parse", "--show-toplevel"])
    if toplevel is None:
        return None
    root = Path(toplevel.strip())
    ref = merge_base(base)
    diff = _git(
        ["diff", "--name-only", "--diff-filter=d", ref or "HEAD"]
    )
    if diff is None:
        return None
    untracked = _git(["ls-files", "--others", "--exclude-standard"]) or ""
    out: set[str] = set()
    for line in [*diff.splitlines(), *untracked.splitlines()]:
        name = line.strip()
        if not name or not name.endswith(".py"):
            continue
        path = root / name
        if path.is_file():
            out.add(_relpath(path))
    return sorted(out)


def resolve_changed_paths(
    lint_roots: list[str], base: str | None = None
) -> list[Path] | None:
    """Files to lint for ``--changed``: the changed files under ``lint_roots``.

    A changed test file outside the linted tree is not linted.  ``None``
    falls back to full-tree linting (no git); an empty list means the
    diff touches nothing the roots cover.  A changed file that does not
    parse is still selected, so its ``PARSE`` finding surfaces.
    """
    changed = changed_files(base)
    if changed is None:
        return None
    wanted = set(changed)
    return sorted(p for p in iter_python_files(lint_roots) if _relpath(p) in wanted)
