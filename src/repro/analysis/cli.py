"""The ``repro lint`` subcommand (also ``python -m repro.analysis``).

Kept free of any import outside :mod:`repro.analysis` and the standard
library, so the CI lint job and the pre-commit hook can run it without
installing the simulator's numeric dependencies.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.analysis.base import all_rules
from repro.analysis.changed import resolve_changed_paths
from repro.analysis.reporters import render_github, render_json, render_text
from repro.analysis.runner import LintConfig, lint_paths


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint flags (shared by ``repro lint`` and ``-m repro.analysis``)."""
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "github"), default="text",
        help="report format (default: text; 'github' emits workflow "
             "error annotations)",
    )
    parser.add_argument(
        "--changed", action="store_true",
        help="lint only the files the git diff changed (merge-base aware; "
             "falls back to the full tree when git is unavailable)",
    )
    parser.add_argument(
        "--changed-base", default=None, metavar="REF",
        help="comparison ref for --changed (default: the branch upstream, "
             "then origin/main)",
    )
    parser.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore", default=None, metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--no-scope", dest="scoped", action="store_false",
        help="ignore per-rule path scoping (lint every rule everywhere)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )


def _split_rules(value: str | None) -> list[str] | None:
    if value is None:
        return None
    return [part.strip() for part in value.split(",") if part.strip()]


def run_lint(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the process exit code."""
    if args.list_rules:
        for rule in all_rules():
            scope = (
                ", ".join(rule.applies_to) if rule.applies_to else "everywhere"
            )
            print(f"{rule.id}  {rule.title}  [{scope}]")
        return 0

    paths: list = list(args.paths)
    if getattr(args, "changed", False):
        resolved = resolve_changed_paths(
            paths, base=getattr(args, "changed_base", None)
        )
        if resolved is not None:
            paths = resolved

    config = LintConfig(
        select=_split_rules(args.select),
        ignore=_split_rules(args.ignore) or (),
        scoped=args.scoped,
    )
    try:
        result = lint_paths(paths, config)
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(f"lint failed: {exc}") from exc

    render = {
        "json": render_json, "github": render_github
    }.get(args.format, render_text)
    print(render(result))
    return 0 if result.ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    """Standalone entry point for ``python -m repro.analysis``."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="determinism-contract static analyzer (see docs/static-analysis.md)",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
