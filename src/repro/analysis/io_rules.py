"""Crash-consistent IO rules for the sweep result store and trace files.

:class:`~repro.sweep.store.ResultStore` persists each sweep cell the
moment it finishes, while other processes (the ``--jobs N`` pool, a
resumed run) read the same directory; ``repro.trace`` writes event logs
that later runs replay.  A file-producing package like these stays
correct through three idioms:

* final files appear **atomically** via ``tempfile.mkstemp`` in the
  destination directory followed by ``os.replace`` (readers see the old
  bytes or the new bytes, never a torn file) —
  :func:`~repro.sweep.store.atomic_write_text` is the in-tree writer;
* a lease is **claimed** with ``os.open(path, O_CREAT | O_EXCL)`` (at
  most one winner among concurrent claimants);
* a **read-modify-write** of a shared file happens under a mutual-
  exclusion guard — an ``os.mkdir`` lock directory or an ``O_EXCL``
  claim — so concurrent merges cannot lose updates.

The fixture packages under ``tests/analysis/fixtures/`` (``io201_*``,
``io202_*``, ``io203_*``) are the worked examples of each idiom and of
its violation.

The rules here enforce those idioms statically, with an intra-function
taint pass over *store-path producers* (``store.root``, ``cell_path()``,
``leases_dir`` and friends) plus one level of cross-module delegation
through the project call graph (so a helper like ``_atomic_write_json``
is recognized as an atomic writer at its call sites):

* **IO201** — a truncating write (``open(p, "w")``, ``write_text``,
  ``json.dump`` into such a handle) lands directly on a final
  store/registry path instead of tmp + ``os.replace``.
* **IO202** — a claim-style write to a *lease* path without
  ``O_CREAT | O_EXCL`` semantics (plain ``"w"`` mode clobbers a
  concurrent claimant's lease instead of losing the race).
* **IO203** — one function both reads and (even atomically) rewrites a
  shared store file with no lease/mkdir guard in itself or any callee:
  two racing processes each read, merge, replace — last writer silently
  drops the other's update.

Dataflow is name-based and scoped with
:func:`~repro.analysis.project.walk_own`, so a nested helper's writes
are not conflated with its enclosing function's reads.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.analysis.base import ModuleContext, ProjectRule, register_rule
from repro.analysis.findings import Finding
from repro.analysis.project import (
    FunctionInfo,
    ModuleInfo,
    ProjectContext,
    walk_own,
)

#: Packages the IO discipline applies to (shared-store writers).
IO_SCOPE = ("repro/sweep", "repro/trace")

#: Attribute/function name suffixes that *produce* shared-store paths.
_PATH_SUFFIXES = ("_path", "_dir", "_file")

#: Path-returning ``pathlib`` methods that keep taint flowing.
_PATH_CHAIN_METHODS = frozenset({
    "joinpath", "with_suffix", "with_name", "with_stem",
    "resolve", "absolute", "expanduser",
})


def _label_for_name(name: str) -> str:
    """Taint label from a producer name: lease paths get their own lane."""
    return "lease" if "lease" in name.lower() else "store"


def _is_producer_name(name: str) -> bool:
    return name == "root" or name.endswith(_PATH_SUFFIXES)


def expr_label(
    expr: ast.expr, taint: dict[str, str]
) -> str | None:
    """Taint label of ``expr`` (``"store"``/``"lease"``/seeded), or ``None``."""
    if isinstance(expr, ast.Name):
        return taint.get(expr.id)
    if isinstance(expr, ast.Attribute):
        if _is_producer_name(expr.attr):
            return _label_for_name(expr.attr)
        return None
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Div):
        return expr_label(expr.left, taint) or expr_label(expr.right, taint)
    if isinstance(expr, ast.IfExp):
        return expr_label(expr.body, taint) or expr_label(expr.orelse, taint)
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name):
            if _is_producer_name(func.id):
                return _label_for_name(func.id)
            if func.id == "Path" and expr.args:
                return expr_label(expr.args[0], taint)
        elif isinstance(func, ast.Attribute):
            if _is_producer_name(func.attr):
                return _label_for_name(func.attr)
            if func.attr in _PATH_CHAIN_METHODS:
                return expr_label(func.value, taint)
    return None


def function_taint(
    func_node: ast.AST, seed: dict[str, str] | None = None
) -> dict[str, str]:
    """Name → label fixpoint over own-scope assignments in ``func_node``."""
    taint: dict[str, str] = dict(seed or {})
    changed = True
    while changed:
        changed = False
        for node in walk_own(func_node):
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None:
                continue
            label = expr_label(value, taint)
            if label is None:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and taint.get(target.id) != label:
                    taint[target.id] = label
                    changed = True
    return taint


# ----------------------------------------------------------------------
# sink classification
# ----------------------------------------------------------------------
#: Sink kinds: how a call touches a tainted path.
READ, CLOBBER, ATOMIC, EXCLUSIVE = "read", "clobber", "atomic", "exclusive"


def _mode_kind(mode: str) -> str:
    if mode.startswith("x"):
        return EXCLUSIVE
    if mode.startswith("r") and "+" not in mode:
        return READ
    return CLOBBER


def _literal_mode(call: ast.Call, position: int) -> str:
    args = call.args
    expr: ast.expr | None = args[position] if len(args) > position else None
    for kw in call.keywords:
        if kw.arg == "mode":
            expr = kw.value
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    return "r" if expr is None else "?"


def _flags_have_excl(expr: ast.expr) -> bool:
    return any(
        (isinstance(node, ast.Attribute) and node.attr == "O_EXCL")
        or (isinstance(node, ast.Name) and node.id == "O_EXCL")
        for node in ast.walk(expr)
    )


def iter_sinks(
    ctx: ModuleContext, call: ast.Call, taint: dict[str, str]
) -> Iterator[tuple[str, str]]:
    """``(kind, label)`` pairs for tainted paths this call touches."""
    func = call.func
    # open(p, "w") / open(p).
    if isinstance(func, ast.Name) and func.id == "open" and call.args:
        label = expr_label(call.args[0], taint)
        if label is not None:
            mode = _literal_mode(call, 1)
            if mode != "?":
                yield _mode_kind(mode), label
        return
    if not isinstance(func, ast.Attribute):
        return
    # p.open("w") / p.open().
    if func.attr == "open":
        label = expr_label(func.value, taint)
        if label is not None:
            mode = _literal_mode(call, 0)
            if mode != "?":
                yield _mode_kind(mode), label
        return
    if func.attr in ("read_text", "read_bytes"):
        label = expr_label(func.value, taint)
        if label is not None:
            yield READ, label
        return
    if func.attr in ("write_text", "write_bytes"):
        label = expr_label(func.value, taint)
        if label is not None:
            yield CLOBBER, label
        return
    # os.open(p, flags): O_EXCL is a claim, anything else writable clobbers.
    if ctx.resolves_to(func, "os", "open") and len(call.args) >= 2:
        label = expr_label(call.args[0], taint)
        if label is not None:
            yield (EXCLUSIVE if _flags_have_excl(call.args[1]) else CLOBBER), label
        return
    # os.replace/os.rename(src, dst): an atomic publish onto dst.
    if (
        (ctx.resolves_to(func, "os", "replace") or ctx.resolves_to(func, "os", "rename"))
        and len(call.args) >= 2
    ):
        label = expr_label(call.args[1], taint)
        if label is not None:
            yield ATOMIC, label


def _has_guard(func_node: ast.AST, ctx: ModuleContext) -> bool:
    """Mutual-exclusion guard in this body: os.mkdir or an O_EXCL open.

    ``mkdir(exist_ok=True)`` is an *ensure*, not a guard — only a mkdir
    that can raise ``FileExistsError`` serializes contenders.
    """
    for node in ast.walk(func_node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if ctx.resolves_to(func, "os", "mkdir"):
            return True
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "mkdir"
            and not any(
                kw.arg == "exist_ok"
                and not (isinstance(kw.value, ast.Constant) and kw.value.value is False)
                for kw in node.keywords
            )
        ):
            return True
        if (
            ctx.resolves_to(func, "os", "open")
            and len(node.args) >= 2
            and _flags_have_excl(node.args[1])
        ):
            return True
    return False


# ----------------------------------------------------------------------
# per-function classification (one delegation level)
# ----------------------------------------------------------------------
@dataclass
class FuncIO:
    """How one function touches shared paths, seen from a call site."""

    #: Params it directly reads as paths / clobber-writes / atomically writes.
    read_params: set[str] = field(default_factory=set)
    clobber_params: set[str] = field(default_factory=set)
    write_params: set[str] = field(default_factory=set)
    #: Touches via its *own* producers (``self.cell_path()`` …): any call
    #: to the function is a shared read/write regardless of arguments.
    reads_shared: bool = False
    clobbers_shared: bool = False
    writes_shared: bool = False
    #: Body contains an os.mkdir / O_EXCL mutual-exclusion guard.
    has_guard: bool = False


def _classify(info: ModuleInfo, func: FunctionInfo) -> FuncIO:
    out = FuncIO()
    params = func.param_names()
    seed = {p: f"param:{p}" for p in params}
    taint = function_taint(func.node, seed)
    ctx = info.context
    for node in walk_own(func.node):
        if not isinstance(node, ast.Call):
            continue
        for kind, label in iter_sinks(ctx, node, taint):
            via_param = label.startswith("param:")
            param = label.removeprefix("param:")
            if kind == READ:
                if via_param:
                    out.read_params.add(param)
                else:
                    out.reads_shared = True
            elif kind == CLOBBER:
                if via_param:
                    out.clobber_params.add(param)
                    out.write_params.add(param)
                else:
                    out.clobbers_shared = True
                    out.writes_shared = True
            elif kind == ATOMIC:
                if via_param:
                    out.write_params.add(param)
                else:
                    out.writes_shared = True
    out.has_guard = _has_guard(func.node, ctx)
    return out


def _arg_labels(
    call: ast.Call, target: FunctionInfo, taint: dict[str, str]
) -> dict[str, str]:
    """Tainted-call-argument labels keyed by the *callee's* param name."""
    params = target.param_names()
    if target.cls is not None and params and params[0] in ("self", "cls"):
        params = params[1:]
    out: dict[str, str] = {}
    for index, arg in enumerate(call.args):
        label = expr_label(arg, taint)
        if label is not None and index < len(params):
            out[params[index]] = label
    for kw in call.keywords:
        if kw.arg is None:
            continue
        label = expr_label(kw.value, taint)
        if label is not None:
            out[kw.arg] = label
    return out


class _IoAnalysis:
    """Shared per-project analysis the three IO rules all read from."""

    def __init__(self, project: ProjectContext) -> None:
        self.project = project
        self.classified: dict[tuple[str, str], FuncIO] = {}
        for info in project.modules.values():
            for func in info.all_functions():
                self.classified[func.ref] = _classify(info, func)
        #: ``(rule_id, module, node, message)`` for every finding.
        self.raw: list[tuple[str, ModuleContext, ast.AST, str]] = []
        for name in sorted(project.modules):
            info = project.modules[name]
            for func in sorted(info.all_functions(), key=lambda f: f.qualname):
                self._check_function(info, func)

    # ------------------------------------------------------------------
    def _guarded(self, func: FunctionInfo) -> bool:
        if self.classified[func.ref].has_guard:
            return True
        return any(
            self.classified[callee.ref].has_guard
            for callee in self.project.transitive_callees(func)
        )

    def _check_function(self, info: ModuleInfo, func: FunctionInfo) -> None:
        ctx = info.context
        taint = function_taint(func.node)
        reads: list[ast.AST] = []
        writes: list[tuple[ast.AST, str]] = []
        for node in walk_own(func.node):
            if not isinstance(node, ast.Call):
                continue
            for kind, label in iter_sinks(ctx, node, taint):
                if kind == READ:
                    reads.append(node)
                elif kind == CLOBBER:
                    writes.append((node, label))
                    self._direct_clobber(ctx, node, label)
                elif kind == ATOMIC:
                    writes.append((node, label))
            for target in self.project.resolve_call(info, node, caller=func):
                io = self.classified.get(target.ref)
                if io is None:
                    continue
                labels = _arg_labels(node, target, taint)
                if io.reads_shared or (io.read_params & set(labels)):
                    reads.append(node)
                shared_write = io.writes_shared or (io.write_params & set(labels))
                clobbered = sorted(io.clobber_params & set(labels))
                if clobbered:
                    for param in clobbered:
                        self._direct_clobber(
                            ctx, node, labels[param],
                            via=f"{target.module}.{target.qualname}()",
                        )
                elif io.clobbers_shared:
                    shared_write = True
                if shared_write:
                    label = next(iter(labels.values()), "store")
                    writes.append((node, label))
        if reads and writes and not self._guarded(func):
            node, label = writes[0]
            self.raw.append((
                "IO203", ctx, node,
                f"{func.qualname}() reads and rewrites a shared {label} file "
                "with no lease/mkdir guard; concurrent writers lose updates — "
                "serialize the read-modify-write under an os.mkdir lock or an "
                "O_CREAT|O_EXCL claim",
            ))

    def _direct_clobber(
        self, ctx: ModuleContext, node: ast.AST, label: str, via: str = ""
    ) -> None:
        suffix = f" via {via}" if via else ""
        if label == "lease":
            self.raw.append((
                "IO202", ctx, node,
                "claim-style write to a lease path without O_CREAT|O_EXCL"
                f"{suffix}; a plain 'w' open clobbers a concurrent claimant — "
                "use os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)",
            ))
        else:
            self.raw.append((
                "IO201", ctx, node,
                "write lands directly on a final store path"
                f"{suffix}; readers can observe a torn file — write to a "
                "tempfile.mkstemp sibling and os.replace onto the destination",
            ))


_ANALYSES: dict[int, _IoAnalysis] = {}


def _analysis(project: ProjectContext) -> _IoAnalysis:
    key = id(project)
    cached = _ANALYSES.get(key)
    if cached is None or cached.project is not project:
        _ANALYSES.clear()
        cached = _ANALYSES[key] = _IoAnalysis(project)
    return cached


class _IoRule(ProjectRule):
    """Base: filter the shared analysis down to one rule id."""

    applies_to = IO_SCOPE

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for rule_id, ctx, node, message in _analysis(project).raw:
            if rule_id == self.id:
                yield self.finding(ctx, node, message)


@register_rule
class DirectFinalWriteRule(_IoRule):
    """IO201: truncating write directly onto a final store path."""

    id = "IO201"
    title = "direct write to a final store path (use tmp + os.replace)"


@register_rule
class NonExclusiveClaimRule(_IoRule):
    """IO202: lease claim without O_CREAT|O_EXCL semantics."""

    id = "IO202"
    title = "lease claim without O_CREAT|O_EXCL"


@register_rule
class UnguardedReadModifyWriteRule(_IoRule):
    """IO203: unguarded read-modify-write of a shared store file."""

    id = "IO203"
    title = "read-modify-write of a shared file outside a lease/mkdir guard"
