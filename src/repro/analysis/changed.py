"""Git-diff-scoped lint runs: the ``repro lint --changed`` resolver.

Pre-commit wants lint latency proportional to the diff, not the repo —
but a *cross-module* analyzer cannot lint changed files in isolation:
editing a helper's ``noise.py`` can create (or fix) an RNG102
finding in the ``api.py`` that calls it (the ``rng102_*`` fixture
packages under ``tests/analysis/fixtures/``).  The correct unit is the
changed files' **import closure**: the changed modules, every
transitive importer of them, and the transitive imports of that whole
set (context the project pass needs), as computed by
:meth:`~repro.analysis.project.ProjectContext.import_closure`.

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

from repro.analysis.base import ModuleContext
from repro.analysis.project import ProjectContext
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
    """Files to lint for ``--changed``: the diff's import closure.

    The closure is computed over *all* files under ``lint_roots`` (one
    cheap parse pass; no rules run), then intersected back with those
    roots — a changed test file outside the linted tree does not drag
    the tree in.  ``None`` falls back to full-tree linting (no git);
    an empty list means the diff touches nothing the roots cover.
    """
    changed = changed_files(base)
    if changed is None:
        return None
    if not changed:
        return []
    candidates = iter_python_files(lint_roots)
    modules: list[ModuleContext] = []
    for path in candidates:
        try:
            modules.append(ModuleContext(path, _relpath(path), path.read_text()))
        except SyntaxError:
            continue  # still linted below if it is in the changed set
    closure = ProjectContext(modules).import_closure(changed)
    selected = [p for p in candidates if _relpath(p) in closure]
    # A changed-but-unparseable file inside the roots must surface its
    # PARSE finding even though it joined no module graph.
    by_relpath = {_relpath(p) for p in selected}
    for path in candidates:
        if _relpath(path) in set(changed) and _relpath(path) not in by_relpath:
            selected.append(path)
    return sorted(selected)
