"""Lint runner: collect files, apply rules, filter suppressions.

:func:`lint_paths` is the single entry point the CLI, the pre-commit
hook and the tests all use.  It is deterministic by construction — the
file list is sorted (the analyzer practices what DET004 preaches) and
findings are reported in (path, line, col, rule) order.

Each file is parsed once and every selected rule runs against its
:class:`~repro.analysis.base.ModuleContext`; a file that does not parse
yields one ``PARSE`` finding instead.  ``# repro: noqa`` suppressions
are applied per file.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.base import ModuleContext, Rule, all_rules
from repro.analysis.findings import Finding
from repro.analysis.suppressions import Suppressions

#: Rule id used for files that do not parse.
PARSE_ERROR_RULE = "PARSE"

#: Directory names never descended into.
SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "node_modules"})


@dataclass
class LintConfig:
    """What to check and how to filter it."""

    #: Rule ids to run (None = all registered rules).
    select: Sequence[str] | None = None
    #: Rule ids to skip.
    ignore: Sequence[str] = ()
    #: Honor each rule's ``applies_to``/``exempt`` path scoping.  Tests
    #: pointing a scoped rule at a fixture file turn this off.
    scoped: bool = True


@dataclass
class LintResult:
    """Everything one lint run produced."""

    #: Findings that fail the gate (not suppressed).
    findings: list[Finding]
    files_checked: int

    @property
    def ok(self) -> bool:
        return not self.findings


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated .py list."""
    seen: set[Path] = set()
    ordered: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(
                p for p in path.rglob("*.py")
                if not (set(p.parts) & SKIP_DIRS)
            )
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                ordered.append(candidate)
    return ordered


def _relpath(path: Path) -> str:
    """Path as reported in findings: cwd-relative posix when possible."""
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def _select_rules(config: LintConfig) -> list[Rule]:
    rules = all_rules()
    known = {rule.id for rule in rules}
    for rule_id in [*(config.select or ()), *config.ignore]:
        if rule_id not in known:
            raise ValueError(
                f"unknown rule {rule_id!r}; known rules: {sorted(known)}"
            )
    if config.select is not None:
        rules = [rule for rule in rules if rule.id in set(config.select)]
    return [rule for rule in rules if rule.id not in set(config.ignore)]


def _lint_module(
    path: Path, rules: Sequence[Rule], scoped: bool
) -> list[Finding]:
    """Unsuppressed findings for one file, or its one ``PARSE`` finding."""
    relpath = _relpath(path)
    source = path.read_text()
    try:
        module = ModuleContext(path, relpath, source)
    except SyntaxError as exc:
        return [Finding(
            path=relpath, line=exc.lineno or 1,
            col=(exc.offset or 0) + 1 if exc.offset else 1,
            rule=PARSE_ERROR_RULE, message=f"file does not parse: {exc.msg}",
        )]
    suppressions = Suppressions(source)
    findings: list[Finding] = []
    for rule in rules:
        if scoped and not rule.in_scope(relpath):
            continue
        findings.extend(
            finding for finding in rule.check(module)
            if not suppressions.is_suppressed(finding)
        )
    return findings


def lint_file(
    path: str | Path, rules: Sequence[Rule], scoped: bool = True
) -> list[Finding]:
    """All (unsuppressed) findings for one file, sorted by location."""
    return sorted(_lint_module(Path(path), rules, scoped))


def lint_paths(
    paths: Iterable[str | Path], config: LintConfig | None = None
) -> LintResult:
    """Lint files/directories."""
    config = config or LintConfig()
    rules = _select_rules(config)
    files = iter_python_files(paths)
    findings = [
        finding for path in files
        for finding in _lint_module(path, rules, config.scoped)
    ]
    return LintResult(findings=sorted(findings), files_checked=len(files))
