"""Determinism-contract static analysis (``repro lint``).

The reproduction's headline guarantee is determinism: parallel sweeps
are bit-identical to serial runs and every RNG draw is seeded.  Nothing
in the type system stops a future change from breaking it with a
global ``random.random()`` call, an unseeded RNG, a wall-clock read
inside the simulator or an iteration over a set; those bugs only
surface (sometimes) as flaky equivalence-suite failures.

This package encodes the contract as per-module AST rules:

* :mod:`repro.analysis.base` — the rule framework (:class:`Rule`,
  registry, :class:`ModuleContext`);
* :mod:`repro.analysis.determinism` — DET001–DET004 and MUT001;
* :mod:`repro.analysis.rng_rules` — unseeded RNG construction (RNG101);
* :mod:`repro.analysis.suppressions` — ``# repro: noqa[RULE]`` line and
  ``# repro: noqa-file[RULE]`` file suppressions;
* :mod:`repro.analysis.changed` — git-diff-scoped runs for pre-commit;
* :mod:`repro.analysis.runner` / :mod:`repro.analysis.reporters` — file
  collection, rule execution and text/JSON/GitHub-annotation output;
* :mod:`repro.analysis.cli` — the ``repro lint`` subcommand, also
  runnable dependency-free as ``python -m repro.analysis``.

What a single module cannot show is checked at runtime instead: the
sweep runner's parallel-equals-serial test, the trace event-registry
test and the result store's failed-write test (see
``docs/static-analysis.md``).
"""

from __future__ import annotations

from repro.analysis.base import (
    Rule,
    all_rules,
    get_rule,
    register_rule,
)
from repro.analysis.findings import Finding
from repro.analysis.runner import LintConfig, LintResult, lint_paths

__all__ = [
    "Finding",
    "LintConfig",
    "LintResult",
    "Rule",
    "all_rules",
    "get_rule",
    "lint_paths",
    "register_rule",
]
