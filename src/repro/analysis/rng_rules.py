"""RNG provenance rules: every random draw must trace back to a seed.

The reproduction's headline guarantees — ``--jobs N`` bit-identity,
equal store digests, rpc-at-zero ≡ instant — all assume
that *every* random draw in the simulated world flows from an injected,
seed-threaded ``random.Random``.  DET001 (module pass) already bans
draws on the process-global ``random`` module; the rules here close the
cross-module holes DET001 cannot see:

* **RNG101** — an RNG constructed without a seed
  (``random.Random()``, ``numpy.random.default_rng()``,
  ``numpy.random.RandomState()``, or any of them seeded with a literal
  ``None``) is seeded from the OS and can never be replayed.
* **RNG102** — a function advertising an ``rng=`` parameter whose body
  — or any *transitive callee*, in any module — still draws from the
  global ``random`` module.  The parameter promises attributable
  randomness; the hidden global draw breaks the promise one call level
  down where the module pass cannot follow.
* **RNG103** — a worker entry point handed to a multiprocessing pool
  (``Pool.map``/``imap*``/``starmap*``/``apply*``, ``Process(target=)``,
  executor ``submit``/``map``) that reads a module-level RNG object
  without reseeding it.  Forked workers inherit the parent's RNG state:
  every worker replays the same stream, and spawn/fork divergence makes
  the sweep's cell results start-method-dependent.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.base import ModuleContext, ProjectRule, Rule, register_rule
from repro.analysis.determinism import RANDOM_DRAW_FNS
from repro.analysis.findings import Finding
from repro.analysis.project import FunctionInfo, ModuleInfo, ProjectContext

#: Paths whose randomness is not part of simulated behaviour.
RNG_EXEMPT = ("tests", "benchmarks")

#: Pool/executor dispatch methods whose first argument is a worker entry.
POOL_DISPATCH = frozenset({
    "map", "imap", "imap_unordered", "map_async",
    "starmap", "starmap_async", "apply", "apply_async", "submit",
})


def _numpy_random_attr(ctx: ModuleContext, node: ast.AST, attr: str) -> bool:
    """Does ``node`` denote ``numpy.random.<attr>`` under this module's imports?"""
    # np.random.default_rng(...) via ``import numpy as np``.
    if (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "random"
        and isinstance(node.value.value, ast.Name)
        and ctx.module_aliases.get(node.value.value.id) == "numpy"
    ):
        return True
    # default_rng(...) via ``from numpy.random import default_rng``.
    if isinstance(node, ast.Name):
        return ctx.from_imports.get(node.id) == ("numpy.random", attr)
    # nprandom.default_rng(...) via ``import numpy.random as nprandom``.
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and ctx.module_aliases.get(node.value.id) == "numpy.random"
    )


def rng_constructor_label(ctx: ModuleContext, call: ast.Call) -> str | None:
    """``"random.Random"``-style label when ``call`` constructs an RNG."""
    func = call.func
    if ctx.resolves_to(func, "random", "Random"):
        return "random.Random"
    for attr in ("default_rng", "RandomState"):
        if _numpy_random_attr(ctx, func, attr):
            return f"numpy.random.{attr}"
    return None


def _is_seeded(call: ast.Call) -> bool:
    """A construction with any non-``None`` seed expression counts as seeded."""
    exprs = [*call.args, *[kw.value for kw in call.keywords]]
    if not exprs:
        return False
    return any(
        not (isinstance(e, ast.Constant) and e.value is None) for e in exprs
    )


def _global_draws(
    ctx: ModuleContext, root: ast.AST
) -> Iterator[tuple[ast.Call, str]]:
    """Draws on the process-global ``random`` module under ``root``."""
    random_names = ctx.names_for_module("random")
    for node in ast.walk(root):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in random_names
            and func.attr in RANDOM_DRAW_FNS
        ):
            yield node, f"random.{func.attr}()"
        elif (
            isinstance(func, ast.Name)
            and ctx.from_imports.get(func.id, ("", ""))[0] == "random"
            and ctx.from_imports[func.id][1] in RANDOM_DRAW_FNS
        ):
            yield node, f"random.{ctx.from_imports[func.id][1]}()"


@register_rule
class UnseededRngRule(Rule):
    """RNG101: RNG constructed without a seed expression."""

    id = "RNG101"
    title = "unseeded RNG construction; thread a seed from config/fingerprint"
    exempt = RNG_EXEMPT

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            label = rng_constructor_label(module, node)
            if label is None or _is_seeded(node):
                continue
            yield self.finding(
                module, node,
                f"{label}() constructed without a seed draws OS entropy and "
                "cannot be replayed; thread a seed derived from the "
                "config/fingerprint",
            )


@register_rule
class HiddenGlobalDrawRule(ProjectRule):
    """RNG102: ``rng=`` functions that (transitively) draw global random."""

    id = "RNG102"
    title = "rng= function draws from the global random module (possibly via callees)"
    exempt = RNG_EXEMPT

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        direct: dict[tuple[str, str], list[tuple[ast.Call, str]]] = {}
        for info in project.modules.values():
            for func in info.all_functions():
                draws = list(_global_draws(info.context, func.node))
                if draws:
                    direct[func.ref] = draws
        for info in sorted(project.modules.values(), key=lambda m: m.name):
            for func in sorted(info.all_functions(), key=lambda f: f.qualname):
                if "rng" not in func.param_names():
                    continue
                yield from self._check_function(project, info, func, direct)

    def _check_function(
        self,
        project: ProjectContext,
        info: ModuleInfo,
        func: FunctionInfo,
        direct: dict[tuple[str, str], list[tuple[ast.Call, str]]],
    ) -> Iterator[Finding]:
        own = direct.get(func.ref)
        if own:
            for node, label in own:
                yield self.finding(
                    info.context, node,
                    f"{func.qualname}() takes rng= but draws {label} from the "
                    "process-global RNG; draw from the injected rng instead",
                )
            return
        # Transitive: find the first-hop call that reaches a global draw.
        for call_node, callee in self._first_hops(project, info, func):
            reached = self._reaches_draw(project, callee, direct)
            if reached is not None:
                yield self.finding(
                    info.context, call_node,
                    f"{func.qualname}() takes rng= but its callee "
                    f"{callee.module}.{callee.qualname}() "
                    f"{'draws' if reached == callee.ref else 'transitively draws'} "
                    "from the process-global random module; thread the rng "
                    "through the call chain",
                )

    def _first_hops(
        self, project: ProjectContext, info: ModuleInfo, func: FunctionInfo
    ) -> list[tuple[ast.Call, FunctionInfo]]:
        hops: list[tuple[ast.Call, FunctionInfo]] = []
        seen: set[tuple[str, str]] = set()
        for node in ast.walk(func.node):
            if isinstance(node, ast.Call):
                for target in project.resolve_call(info, node, caller=func):
                    if target.ref not in seen:
                        seen.add(target.ref)
                        hops.append((node, target))
        return hops

    def _reaches_draw(
        self,
        project: ProjectContext,
        start: FunctionInfo,
        direct: dict[tuple[str, str], list[tuple[ast.Call, str]]],
    ) -> tuple[str, str] | None:
        if start.ref in direct:
            return start.ref
        for callee in project.transitive_callees(start):
            if callee.ref in direct:
                return callee.ref
        return None


def _module_rng_globals(info: ModuleInfo) -> dict[str, str]:
    """Module-level names bound to an RNG construction → constructor label."""
    out: dict[str, str] = {}
    for name, value in info.globals.items():
        if isinstance(value, ast.Call):
            label = rng_constructor_label(info.context, value)
            if label is not None:
                out[name] = label
    return out


def _reads_without_reseed(
    func: FunctionInfo, rng_names: dict[str, str]
) -> list[tuple[str, str]]:
    """RNG globals ``func`` reads without ``.seed(...)``/rebinding them."""
    reseeded: set[str] = set()
    read: dict[str, str] = {}
    for node in ast.walk(func.node):
        if isinstance(node, ast.Call):
            f = node.func
            if (
                isinstance(f, ast.Attribute)
                and f.attr == "seed"
                and isinstance(f.value, ast.Name)
                and f.value.id in rng_names
            ):
                reseeded.add(f.value.id)
        elif isinstance(node, ast.Name) and node.id in rng_names:
            if isinstance(node.ctx, ast.Store):
                reseeded.add(node.id)  # local rebinding shadows the global
            else:
                read.setdefault(node.id, rng_names[node.id])
    return sorted((n, label) for n, label in read.items() if n not in reseeded)


@register_rule
class WorkerRngCaptureRule(ProjectRule):
    """RNG103: module-level RNGs captured into worker entry points."""

    id = "RNG103"
    title = "worker entry captures a module-level RNG without per-task reseeding"
    exempt = RNG_EXEMPT

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for info in sorted(project.modules.values(), key=lambda m: m.name):
            for node in ast.walk(info.context.tree):
                if isinstance(node, ast.Call):
                    yield from self._check_dispatch(project, info, node)

    def _entry_argument(self, call: ast.Call) -> ast.expr | None:
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in POOL_DISPATCH:
            return call.args[0] if call.args else None
        # Process(target=f) / Thread(target=f).
        name = (
            func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else ""
        )
        if name in ("Process", "Thread"):
            for kw in call.keywords:
                if kw.arg == "target":
                    return kw.value
        return None

    def _check_dispatch(
        self, project: ProjectContext, info: ModuleInfo, call: ast.Call
    ) -> Iterator[Finding]:
        entry_expr = self._entry_argument(call)
        if entry_expr is None:
            return
        entry = self._resolve_entry(project, info, entry_expr)
        if entry is None:
            return
        seen: set[tuple[str, str]] = set()
        for func in [entry, *project.transitive_callees(entry)]:
            if func.ref in seen:
                continue
            seen.add(func.ref)
            func_info = project.modules[func.module]
            captured = _reads_without_reseed(
                func, _module_rng_globals(func_info)
            )
            for name, label in captured:
                where = (
                    "" if func.ref == entry.ref
                    else f" (via {func.module}.{func.qualname}())"
                )
                yield self.finding(
                    info.context, call,
                    f"worker entry {entry.qualname}() captures module-level "
                    f"{label} '{name}'{where} without per-task reseeding; "
                    "derive a fresh RNG from the task's seed instead",
                )

    def _resolve_entry(
        self, project: ProjectContext, info: ModuleInfo, expr: ast.expr
    ) -> FunctionInfo | None:
        if isinstance(expr, ast.Name):
            local = info.functions.get(expr.id)
            if local is not None:
                return local
            return project.resolve_function(info.name, expr.id)
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            binding = info.bindings.get(expr.value.id)
            if binding is not None and binding[1] is None:
                target = project._internal_module(binding[0])
                if target is not None:
                    return project.resolve_function(target, expr.attr)
        return None
