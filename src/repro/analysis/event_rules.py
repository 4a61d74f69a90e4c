"""Trace-event schema drift: emitted kinds vs handler tables (EVT301).

The trace layer is a string-keyed schema split across modules: event
classes declare ``kind = "cache_hit"``-style tags in
``repro.trace.events``, while the consumers — the chrome-export
category map, the replay pivot groups — each keep a
dict literal keyed by those same strings.  Nothing ties them together
at runtime: add an event kind and forget one table, and the new events
silently fall out of that consumer's output (or a stale key in a table
handles a kind that no longer exists).

EVT301 cross-references them statically.  Pass one collects every
*kind family*: classes in one inheritance hierarchy carrying a
string-constant ``kind`` class attribute (trace events and control
messages form two separate families — they may even share a tag like
``"worker_register"`` without interfering).  Pass two finds *handler
tables*: dict literals whose string keys substantially overlap one
family (at least :data:`MIN_TABLE_KEYS` known kinds, covering at least
:data:`COVERAGE` of both the table and the family).  A matched table
missing a kind — or carrying a key no class defines — is schema drift.

The coverage threshold is what keeps intent legible: a dict that
handles three of sixteen kinds is a deliberate subset and is ignored;
a dict that handles fifteen of sixteen is a complete table with a hole
in it, which is exactly the bug this rule exists to catch.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass

from repro.analysis.base import ProjectRule, register_rule
from repro.analysis.findings import Finding
from repro.analysis.project import ModuleInfo, ProjectContext

#: A dict literal must contain at least this many known kinds to count
#: as a handler table (small mappings are never schema mirrors).
MIN_TABLE_KEYS = 3

#: …and known kinds must cover this fraction of the table's keys *and*
#: of the family, in both directions.
COVERAGE = 0.8


@dataclass
class KindFamily:
    """One inheritance hierarchy of kind-tagged classes."""

    #: Root class name (e.g. ``"TraceEvent"``) — names the family.
    root: str
    #: kind string → defining module.
    kinds: dict[str, str]


@dataclass
class HandlerTable:
    """One dict literal keyed (mostly) by event-kind strings."""

    info: ModuleInfo
    #: Assigned name when the dict binds one (``EVENT_GROUPS``), else a
    #: location-derived placeholder.
    name: str
    node: ast.Dict
    keys: set[str]


def _class_kind(cls: ast.ClassDef) -> str | None:
    """The class-body ``kind = "..."`` constant, when present."""
    for stmt in cls.body:
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "kind" for t in stmt.targets):
                value = stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and stmt.target.id == "kind":
                value = stmt.value
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            return value.value
    return None


def _family_root(project: ProjectContext, info: ModuleInfo, cls: ast.ClassDef) -> str:
    """Topmost project-resolvable ancestor name (the family label)."""
    chain = project.ancestors(info, cls)
    if chain:
        return chain[-1][1].name
    for base in cls.bases:
        if isinstance(base, ast.Name):
            return base.id
        if isinstance(base, ast.Attribute):
            return base.attr
    return cls.name


def collect_families(project: ProjectContext) -> list[KindFamily]:
    """Kind-tagged class hierarchies across the analyzed modules.

    A family-root class's own ``kind`` (``TraceEvent.kind = "event"``)
    is an abstract placeholder every concrete subclass overrides, not an
    emitted kind — it is dropped whenever the family has other members.
    """
    by_root: dict[str, KindFamily] = {}
    root_kinds: dict[str, tuple[str, str]] = {}
    for name in sorted(project.modules):
        info = project.modules[name]
        for cls in info.classes.values():
            kind = _class_kind(cls)
            if kind is None:
                continue
            root = _family_root(project, info, cls)
            family = by_root.setdefault(root, KindFamily(root, {}))
            if cls.name == root:
                root_kinds.setdefault(root, (kind, info.name))
                continue
            family.kinds.setdefault(kind, info.name)
    for root, family in by_root.items():
        if not family.kinds and root in root_kinds:
            kind, module = root_kinds[root]
            family.kinds[kind] = module
    return [f for f in by_root.values() if len(f.kinds) >= MIN_TABLE_KEYS]


def _dict_string_keys(node: ast.Dict) -> set[str] | None:
    """All keys when every non-spread key is a string constant."""
    keys: set[str] = set()
    for key in node.keys:
        if key is None:  # **spread — contents unknowable, skip the table
            return None
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            return None
        keys.add(key.value)
    return keys


def collect_tables(info: ModuleInfo) -> Iterator[HandlerTable]:
    """String-keyed dict literals anywhere in the module (named if bound)."""
    for node in ast.walk(info.context.tree):
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if not isinstance(value, ast.Dict):
            continue
        keys = _dict_string_keys(value)
        if not keys:
            continue
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        names += [t.attr for t in targets if isinstance(t, ast.Attribute)]
        name = names[0] if names else f"<dict at line {value.lineno}>"
        yield HandlerTable(info, name, value, keys)


def _match(table: HandlerTable, family: KindFamily) -> int | None:
    """Intersection size when ``table`` mirrors ``family``, else ``None``."""
    known = table.keys & set(family.kinds)
    if len(known) < MIN_TABLE_KEYS:
        return None
    if len(known) < COVERAGE * len(table.keys):
        return None
    if len(known) < COVERAGE * len(family.kinds):
        return None
    return len(known)


@register_rule
class EventTableDriftRule(ProjectRule):
    """EVT301: handler table out of sync with its kind family."""

    id = "EVT301"
    title = "event handler table misses (or invents) a declared event kind"
    exempt = ("tests", "benchmarks")

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        families = collect_families(project)
        if not families:
            return
        for name in sorted(project.modules):
            info = project.modules[name]
            for table in collect_tables(info):
                family = self._best_family(table, families)
                if family is None:
                    continue
                yield from self._drift(table, family)

    def _best_family(
        self, table: HandlerTable, families: list[KindFamily]
    ) -> KindFamily | None:
        best: KindFamily | None = None
        best_score = -1
        for family in families:
            score = _match(table, family)
            if score is not None and score > best_score:
                best, best_score = family, score
        return best

    def _drift(self, table: HandlerTable, family: KindFamily) -> Iterator[Finding]:
        for kind in sorted(set(family.kinds) - table.keys):
            yield self.finding(
                table.info.context, table.node,
                f"table '{table.name}' handles {family.root} kinds but misses "
                f"'{kind}' (declared in {family.kinds[kind]}); events of that "
                "kind silently fall out of this consumer",
            )
        for key in sorted(table.keys - set(family.kinds)):
            yield self.finding(
                table.info.context, table.node,
                f"table '{table.name}' handles kind '{key}' that no "
                f"{family.root} class declares; the entry is dead (or the "
                "kind was renamed without updating this table)",
            )
