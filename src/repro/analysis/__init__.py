"""Whole-program contract static analysis (``repro lint``).

The reproduction's headline guarantees are determinism and
crash-consistency invariants: parallel sweeps are bit-identical to
serial runs, an rpc control plane at zero latency is equivalent to the
instant one, the result store publishes every cell atomically, and
every RNG draw is accounted for.  Nothing in the type
system stops a future change from breaking them with a global
``random.random()`` call, a wall-clock read inside the simulator, a
store file rewritten in place, or an event kind nobody's pivot
table handles — those bugs only surface (sometimes) as flaky
equivalence-suite failures.

This package encodes the contracts as a two-pass AST lint: a per-module
pass, then a *whole-program* pass over a
:class:`~repro.analysis.project.ProjectContext` (symbol tables, import
graph, conservative call graph, class hierarchy) that cross-module
rules consume:

* :mod:`repro.analysis.base` — the rule framework (:class:`Rule`,
  :class:`ProjectRule`, registry, :class:`ModuleContext`);
* :mod:`repro.analysis.project` — the first pass: whole-program context
  construction and the ``--changed`` import-closure computation;
* :mod:`repro.analysis.determinism` — per-module rules
  (DET001–DET004, MUT001);
* :mod:`repro.analysis.rng_rules` — RNG provenance (RNG101–RNG103);
* :mod:`repro.analysis.io_rules` — crash-consistent IO over the result
  store and trace files (IO201);
* :mod:`repro.analysis.event_rules` — trace-event schema drift (EVT301);
* :mod:`repro.analysis.suppressions` — ``# repro: noqa[RULE]`` line and
  ``# repro: noqa-file[RULE]`` file suppressions;
* :mod:`repro.analysis.changed` — git-diff-scoped runs for pre-commit;
* :mod:`repro.analysis.runner` / :mod:`repro.analysis.reporters` — file
  collection, rule execution and text/JSON/GitHub-annotation output;
* :mod:`repro.analysis.cli` — the ``repro lint`` subcommand, also
  runnable dependency-free as ``python -m repro.analysis``.

See ``docs/static-analysis.md`` for the rule catalog and workflow.
"""

from __future__ import annotations

from repro.analysis.base import (
    ProjectRule,
    Rule,
    all_rules,
    get_rule,
    register_rule,
)
from repro.analysis.findings import Finding
from repro.analysis.project import ProjectContext
from repro.analysis.runner import LintConfig, LintResult, lint_paths

__all__ = [
    "Finding",
    "LintConfig",
    "LintResult",
    "ProjectContext",
    "ProjectRule",
    "Rule",
    "all_rules",
    "get_rule",
    "lint_paths",
    "register_rule",
]
