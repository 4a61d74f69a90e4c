"""Lint runner: collect files, apply rules, filter suppressions.

:func:`lint_paths` is the single entry point the CLI, the pre-commit
hook and the tests all use.  It is deterministic by construction — the
file list is sorted (the analyzer practices what DET004 preaches) and
findings are reported in (path, line, col, rule) order.

Linting is two passes.  The *module pass* parses every file once and
runs the per-module rules against each
:class:`~repro.analysis.base.ModuleContext`.  The *project pass* then
builds one :class:`~repro.analysis.project.ProjectContext` over all the
parsed modules and runs every
:class:`~repro.analysis.base.ProjectRule` against it — path scoping for
those is applied to each finding's *own* path, so a cross-module rule
sees the whole analyzed set as context but only reports inside the
packages it patrols, and ``# repro: noqa`` suppressions keep working
because the runner kept each file's suppression table from the first
pass.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.base import ModuleContext, ProjectRule, Rule, all_rules
from repro.analysis.findings import Finding
from repro.analysis.project import ProjectContext
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


def _parse(path: Path) -> tuple[ModuleContext | None, Finding | None, str]:
    """(module, parse-error finding, source) for one file."""
    relpath = _relpath(path)
    source = path.read_text()
    try:
        return ModuleContext(path, relpath, source), None, source
    except SyntaxError as exc:
        finding = Finding(
            path=relpath, line=exc.lineno or 1,
            col=(exc.offset or 0) + 1 if exc.offset else 1,
            rule=PARSE_ERROR_RULE, message=f"file does not parse: {exc.msg}",
        )
        return None, finding, source


def _module_pass(
    module: ModuleContext,
    suppressions: Suppressions,
    rules: Sequence[Rule],
    scoped: bool,
) -> list[Finding]:
    findings: list[Finding] = []
    for rule in rules:
        if scoped and not rule.in_scope(module.relpath):
            continue
        findings.extend(
            finding for finding in rule.check(module)
            if not suppressions.is_suppressed(finding)
        )
    return findings


def _project_pass(
    modules: Sequence[ModuleContext],
    suppressions: dict[str, Suppressions],
    rules: Sequence[ProjectRule],
    scoped: bool,
) -> list[Finding]:
    if not rules or not modules:
        return []
    project = ProjectContext(modules)
    findings: list[Finding] = []
    for rule in rules:
        for finding in rule.check_project(project):
            if scoped and not rule.in_scope(finding.path):
                continue
            table = suppressions.get(finding.path)
            if table is not None and table.is_suppressed(finding):
                continue
            findings.append(finding)
    return findings


def lint_file(
    path: str | Path, rules: Sequence[Rule], scoped: bool = True
) -> list[Finding]:
    """All (unsuppressed) findings for one file, sorted by location.

    Project rules run against a single-module
    :class:`~repro.analysis.project.ProjectContext` — enough for tests
    to point one at a fixture file; cross-module behaviour needs
    :func:`lint_paths` over the whole fixture package.
    """
    module, parse_error, source = _parse(Path(path))
    if module is None:
        return [parse_error] if parse_error is not None else []
    suppressions = Suppressions(source)
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]
    module_rules = [r for r in rules if not isinstance(r, ProjectRule)]
    findings = _module_pass(module, suppressions, module_rules, scoped)
    findings.extend(_project_pass(
        [module], {module.relpath: suppressions}, project_rules, scoped
    ))
    return sorted(findings)


def lint_paths(
    paths: Iterable[str | Path], config: LintConfig | None = None
) -> LintResult:
    """Lint files/directories (both passes)."""
    config = config or LintConfig()
    rules = _select_rules(config)
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]
    module_rules = [r for r in rules if not isinstance(r, ProjectRule)]
    files = iter_python_files(paths)

    all_findings: list[Finding] = []
    modules: list[ModuleContext] = []
    suppressions: dict[str, Suppressions] = {}
    for path in files:
        module, parse_error, source = _parse(path)
        if module is None:
            if parse_error is not None:
                all_findings.append(parse_error)
            continue
        table = Suppressions(source)
        suppressions[module.relpath] = table
        modules.append(module)
        all_findings.extend(_module_pass(module, table, module_rules, config.scoped))

    all_findings.extend(
        _project_pass(modules, suppressions, project_rules, config.scoped)
    )
    return LintResult(findings=sorted(all_findings), files_checked=len(files))
