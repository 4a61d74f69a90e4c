"""Crash-consistent IO rule for the sweep result store and trace files.

:class:`~repro.sweep.store.ResultStore` persists each sweep cell the
moment it finishes, while other processes (the ``--jobs N`` pool, a
resumed run) read the same directory; ``repro.trace`` writes event logs
that later runs replay.  Readers stay safe when every final file
appears **atomically**: written to a ``tempfile.mkstemp`` sibling in the
destination directory, then renamed onto it with ``os.replace``
(readers see the old bytes or the new bytes, never a torn file).
:func:`~repro.sweep.store.atomic_write_text` is the in-tree writer, and
the fixture packages ``tests/analysis/fixtures/io201_*`` are the worked
example of the idiom and of its violation.

**IO201** enforces it statically: a write (``open(p, "w")``,
``write_text``, ``os.open``) that lands directly on a final store path.
An intra-function taint pass follows *store-path producers*
(``store.root``, ``cell_path()`` and friends) through ``/``-joins and
``Path(...)``, plus one level of cross-module delegation through the
project call graph: a helper that writes its path argument in place is
reported at each call site that hands it a store path.

Dataflow is name-based and scoped with
:func:`~repro.analysis.project.walk_own`, so a nested helper's writes
are not conflated with its enclosing function's.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.base import ModuleContext, ProjectRule, register_rule
from repro.analysis.findings import Finding
from repro.analysis.project import FunctionInfo, ProjectContext, walk_own

#: Packages the IO discipline applies to (shared-store writers).
IO_SCOPE = ("repro/sweep", "repro/trace")

#: Attribute/function name suffixes that *produce* shared-store paths.
_PATH_SUFFIXES = ("_path", "_dir", "_file")

#: Path-returning ``pathlib`` methods that keep taint flowing.
_PATH_CHAIN_METHODS = frozenset({
    "joinpath", "with_suffix", "with_name", "with_stem",
    "resolve", "absolute", "expanduser",
})

#: Taint label of a path a store producer made (params get ``param:<name>``).
STORE = "store"


def _is_producer_name(name: str) -> bool:
    return name == "root" or name.endswith(_PATH_SUFFIXES)


def expr_label(expr: ast.expr, taint: dict[str, str]) -> str | None:
    """Taint label of ``expr`` (``"store"`` or a seeded label), or ``None``."""
    if isinstance(expr, ast.Name):
        return taint.get(expr.id)
    if isinstance(expr, ast.Attribute):
        return STORE if _is_producer_name(expr.attr) else None
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Div):
        return expr_label(expr.left, taint) or expr_label(expr.right, taint)
    if isinstance(expr, ast.IfExp):
        return expr_label(expr.body, taint) or expr_label(expr.orelse, taint)
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name):
            if _is_producer_name(func.id):
                return STORE
            if func.id == "Path" and expr.args:
                return expr_label(expr.args[0], taint)
        elif isinstance(func, ast.Attribute):
            if _is_producer_name(func.attr):
                return STORE
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


def _writes(call: ast.Call, position: int) -> bool:
    """Does this ``open`` call's literal mode write? (Non-literal: no.)"""
    args = call.args
    expr: ast.expr | None = args[position] if len(args) > position else None
    for kw in call.keywords:
        if kw.arg == "mode":
            expr = kw.value
    if expr is None:
        return False
    if not (isinstance(expr, ast.Constant) and isinstance(expr.value, str)):
        return False
    return not expr.value.startswith("r") or "+" in expr.value


def written_label(ctx: ModuleContext, call: ast.Call, taint: dict[str, str]) -> str | None:
    """Label of the tainted path this call writes in place, or ``None``."""
    func = call.func
    # open(p, "w").
    if isinstance(func, ast.Name) and func.id == "open" and call.args:
        return expr_label(call.args[0], taint) if _writes(call, 1) else None
    if not isinstance(func, ast.Attribute):
        return None
    # os.open(p, flags) names the final path whatever the flags.
    if ctx.resolves_to(func, "os", "open"):
        return expr_label(call.args[0], taint) if len(call.args) >= 2 else None
    # p.open("w").
    if func.attr == "open":
        return expr_label(func.value, taint) if _writes(call, 0) else None
    if func.attr in ("write_text", "write_bytes"):
        return expr_label(func.value, taint)
    return None


def _written_params(ctx: ModuleContext, func: FunctionInfo) -> set[str]:
    """Parameters ``func`` writes in place, seen from a call site."""
    taint = function_taint(func.node, {p: f"param:{p}" for p in func.param_names()})
    labels = (
        written_label(ctx, node, taint)
        for node in walk_own(func.node)
        if isinstance(node, ast.Call)
    )
    return {label.removeprefix("param:") for label in labels if label and label != STORE}


def _tainted_args(call: ast.Call, target: FunctionInfo, taint: dict[str, str]) -> set[str]:
    """The callee's parameter names that this call binds to tainted paths."""
    params = target.param_names()
    if target.cls is not None and params and params[0] in ("self", "cls"):
        params = params[1:]
    out = {
        params[index]
        for index, arg in enumerate(call.args)
        if index < len(params) and expr_label(arg, taint) is not None
    }
    out.update(
        kw.arg for kw in call.keywords
        if kw.arg is not None and expr_label(kw.value, taint) is not None
    )
    return out


@register_rule
class DirectFinalWriteRule(ProjectRule):
    """IO201: write directly onto a final store path."""

    id = "IO201"
    title = "direct write to a final store path (use tmp + os.replace)"
    applies_to = IO_SCOPE

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        written = {
            func.ref: _written_params(info.context, func)
            for info in project.modules.values()
            for func in info.all_functions()
        }
        for name in sorted(project.modules):
            info = project.modules[name]
            ctx = info.context
            for func in sorted(info.all_functions(), key=lambda f: f.qualname):
                taint = function_taint(func.node)
                for node in walk_own(func.node):
                    if not isinstance(node, ast.Call):
                        continue
                    if written_label(ctx, node, taint) is not None:
                        yield self._finding(ctx, node)
                    for target in project.resolve_call(info, node, caller=func):
                        params = written.get(target.ref, set())
                        for _ in sorted(params & _tainted_args(node, target, taint)):
                            yield self._finding(
                                ctx, node, via=f"{target.module}.{target.qualname}()"
                            )

    def _finding(self, ctx: ModuleContext, node: ast.AST, via: str = "") -> Finding:
        suffix = f" via {via}" if via else ""
        return self.finding(
            ctx, node,
            "write lands directly on a final store path"
            f"{suffix}; readers can observe a torn file — write to a "
            "tempfile.mkstemp sibling and os.replace onto the destination",
        )
