"""Rule framework: module context, rule base class and the registry.

A rule is a small object with an ``id``, a human description and a
``check(module)`` generator over :class:`~repro.analysis.findings.Finding`.
Rules are *pure* — path scoping (which packages a rule patrols) is data
on the rule (:attr:`Rule.applies_to` / :attr:`Rule.exempt`) that the
runner enforces, so tests can point any rule at any fixture file
directly.

:class:`ModuleContext` wraps one parsed source file with the lazy
derived structures every rule wants: a child→parent node map and the
module's import alias tables.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from functools import cached_property
from pathlib import Path

from repro.analysis.findings import Finding


class ModuleContext:
    """One parsed python module plus lazily-built lookup structures."""

    def __init__(self, path: Path, relpath: str, source: str) -> None:
        self.path = path
        #: Path as reported in findings (posix, relative to the lint cwd).
        self.relpath = relpath
        self.source = source
        self.tree = ast.parse(source, filename=str(path))
        self.lines = source.splitlines()

    @cached_property
    def parents(self) -> dict[ast.AST, ast.AST]:
        """Child node → parent node, for context-sensitive checks."""
        parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        return parents

    @cached_property
    def module_aliases(self) -> dict[str, str]:
        """Local name → imported module (``import random as rnd`` → rnd)."""
        aliases: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    aliases[alias.asname or alias.name.split(".")[0]] = alias.name
        return aliases

    @cached_property
    def from_imports(self) -> dict[str, tuple[str, str]]:
        """Local name → (module, attr) for ``from module import attr``."""
        imports: dict[str, tuple[str, str]] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    imports[alias.asname or alias.name] = (node.module, alias.name)
        return imports

    # ------------------------------------------------------------------
    def names_for_module(self, module: str) -> set[str]:
        """All local names bound to ``module`` itself."""
        return {name for name, mod in self.module_aliases.items() if mod == module}

    def resolves_to(self, node: ast.AST, module: str, attr: str) -> bool:
        """True when ``node`` denotes ``module.attr`` under this module's imports."""
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return (
                self.module_aliases.get(node.value.id) == module
                and node.attr == attr
            )
        if isinstance(node, ast.Name):
            return self.from_imports.get(node.id) == (module, attr)
        return False

    def ancestor_calls(self, node: ast.AST) -> Iterator[ast.Call]:
        """Call nodes on the parent chain, innermost first (statement-bounded)."""
        current = self.parents.get(node)
        while current is not None and not isinstance(current, ast.stmt):
            if isinstance(current, ast.Call):
                yield current
            current = self.parents.get(current)


class Rule:
    """Base class for lint rules; subclass and :func:`register_rule`."""

    #: Short stable identifier, e.g. ``"DET001"``.
    id: str = ""
    #: One-line summary for ``repro lint --list-rules`` and the docs.
    title: str = ""
    #: Path fragments (posix, e.g. ``"repro/simulator"``) the rule patrols;
    #: ``None`` means every linted file.  Enforced by the runner.
    applies_to: tuple[str, ...] | None = None
    #: Path fragments exempt from the rule even when in scope.
    exempt: tuple[str, ...] = ()

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Yield findings for one module (no path filtering here)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def finding(self, module: ModuleContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=module.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.id,
            message=message,
        )

    def in_scope(self, relpath: str) -> bool:
        """Does this rule patrol ``relpath``? (Used by the runner.)"""
        probe = f"/{relpath}"
        if any(f"/{fragment}/" in probe or probe.endswith(f"/{fragment}")
               for fragment in self.exempt):
            return False
        if self.applies_to is None:
            return True
        return any(f"/{fragment}/" in probe for fragment in self.applies_to)


#: Registry: rule id → rule instance (populated by :func:`register_rule`).
_REGISTRY: dict[str, Rule] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and register a rule by its id."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    _REGISTRY[rule.id] = rule
    return cls


def _load_shipped_rules() -> None:
    """Import every shipped rule module (registration side effect)."""
    import repro.analysis.determinism  # noqa: F401
    import repro.analysis.rng_rules  # noqa: F401


def all_rules() -> list[Rule]:
    """Every registered rule, sorted by id."""
    _load_shipped_rules()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    """Look up one registered rule (KeyError with the known ids otherwise)."""
    _load_shipped_rules()

    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise KeyError(
            f"unknown rule {rule_id!r}; known rules: {sorted(_REGISTRY)}"
        ) from None
