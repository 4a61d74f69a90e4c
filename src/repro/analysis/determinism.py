"""The shipped rule set: the determinism contract, as AST checks.

Every rule here encodes one way a change can silently break the
reproduction's determinism invariants (sweep bit-identity, rpc-at-zero
equivalence, draw-for-draw RNG discipline):

* **DET001** — draws on the process-global ``random`` module.  Policy
  and workload randomness must come from an injected, seed-threaded
  ``random.Random`` so every draw is attributable and replayable.
* **DET002** — wall-clock reads inside the simulated world
  (``simulator/``, ``core/``, ``policies/``, ``control/``).  Simulated
  time is the only clock there; ``time.time()`` output depends on the
  host.
* **DET003** — iteration over unordered collections (``set(...)``,
  dict views) feeding ordering-sensitive constructs: heap pushes,
  candidate lists, comprehensions that build ordered results.  Set
  iteration order is hash-salted per process; wrap in ``sorted(...)``.
* **DET004** — unsorted directory listings (``os.listdir``,
  ``glob.glob``, ``Path.glob``/``iterdir``).  On-disk order is
  filesystem-dependent; resumable stores must not let it leak into
  behaviour.
* **MUT001** — mutable default arguments, the classic shared-state
  bug (a ``list``/``dict``/``set`` default is created once per process
  and mutates across calls).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.base import ModuleContext, Rule, register_rule
from repro.analysis.findings import Finding

#: Packages whose code runs "inside" the simulation and therefore must
#: be deterministic given (dag, cluster, scheme, seeds).
SIMULATED_WORLD = (
    "repro/simulator",
    "repro/core",
    "repro/policies",
    "repro/control",
)

#: random-module functions that draw from (or reseed) the global RNG.
RANDOM_DRAW_FNS = frozenset({
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "seed", "getrandbits", "randbytes", "gauss",
    "normalvariate", "lognormvariate", "expovariate", "betavariate",
    "gammavariate", "triangular", "vonmisesvariate", "paretovariate",
    "weibullvariate", "binomialvariate",
})

#: time-module functions that read host clocks.
WALL_CLOCK_FNS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "process_time_ns", "clock_gettime",
    "clock_gettime_ns",
})

#: Consumers whose result does not depend on input order: feeding an
#: unordered iterable straight into these is fine.
ORDER_INSENSITIVE_CONSUMERS = frozenset({
    "sorted", "set", "frozenset", "sum", "len", "min", "max", "any", "all",
})


@register_rule
class GlobalRandomRule(Rule):
    """DET001: draws on the shared module-level ``random`` RNG."""

    id = "DET001"
    title = "global random.* draw; inject a seeded random.Random instead"
    #: Tests and benchmarks do not define simulated behaviour.
    exempt = ("tests", "benchmarks")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        random_names = module.names_for_module("random")
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                drawn = sorted(
                    alias.name for alias in node.names
                    if alias.name in RANDOM_DRAW_FNS
                )
                if drawn:
                    yield self.finding(
                        module, node,
                        f"importing {', '.join(drawn)} from random binds the "
                        "process-global RNG; draw from an injected "
                        "random.Random instance",
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in random_names
                    and func.attr in RANDOM_DRAW_FNS
                ):
                    yield self.finding(
                        module, node,
                        f"random.{func.attr}() draws from the process-global "
                        "RNG; draw from an injected random.Random instance",
                    )


@register_rule
class WallClockRule(Rule):
    """DET002: host-clock reads inside the simulated world."""

    id = "DET002"
    title = "wall-clock read inside the simulator; use simulated time"
    applies_to = SIMULATED_WORLD

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            for fn in WALL_CLOCK_FNS:
                if module.resolves_to(func, "time", fn):
                    yield self.finding(
                        module, node,
                        f"time.{fn}() reads a host clock; simulated components "
                        "must take time from the engine",
                    )
                    break
            else:
                yield from self._check_datetime(module, node)

    def _check_datetime(self, module: ModuleContext, node: ast.Call) -> Iterator[Finding]:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in ("now", "utcnow", "today")):
            return
        base = func.value
        # datetime.now() / date.today() via `from datetime import datetime`.
        from_datetime = (
            isinstance(base, ast.Name)
            and module.from_imports.get(base.id, ("", ""))[0] == "datetime"
        )
        # datetime.datetime.now() via `import datetime`.
        qualified = (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and module.module_aliases.get(base.value.id) == "datetime"
            and base.attr in ("datetime", "date")
        )
        if from_datetime or qualified:
            yield self.finding(
                module, node,
                f"datetime .{func.attr}() reads the host clock; simulated "
                "components must take time from the engine",
            )


def _is_set_shaped(node: ast.AST) -> bool:
    """Syntactically a set: literal, comprehension or set()/frozenset() call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _is_dict_view(node: ast.AST) -> bool:
    """A ``.keys()`` / ``.values()`` / ``.items()`` call result."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("keys", "values", "items")
        and not node.args
        and not node.keywords
    )


def _is_heap_push(node: ast.AST, module: ModuleContext) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name) and func.id in ("heappush", "heappushpop"):
        return True
    return (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in module.names_for_module("heapq")
        and func.attr in ("heappush", "heappushpop", "heapify")
    )


def _body_has_ordering_sink(body: list[ast.stmt], module: ModuleContext,
                            heap_only: bool = False) -> bool:
    """Does a loop body push to a heap (or, unless ``heap_only``, append)?"""
    for stmt in body:
        for node in ast.walk(stmt):
            if _is_heap_push(node, module):
                return True
            if heap_only:
                continue
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("append", "appendleft", "extend")
            ):
                return True
    return False


@register_rule
class UnorderedIterationRule(Rule):
    """DET003: unordered iteration feeding ordering-sensitive constructs."""

    id = "DET003"
    title = "unordered set/dict-view iteration feeds an ordered construct"
    applies_to = SIMULATED_WORLD + ("repro/cluster",)

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                yield from self._check_comprehension(module, node)
            elif isinstance(node, ast.For):
                yield from self._check_for(module, node)
            elif isinstance(node, ast.Call):
                yield from self._check_materialize(module, node)

    # ------------------------------------------------------------------
    def _sanitized(self, module: ModuleContext, node: ast.AST) -> bool:
        """Is the value consumed by an order-insensitive function?"""
        for call in module.ancestor_calls(node):
            if (
                isinstance(call.func, ast.Name)
                and call.func.id in ORDER_INSENSITIVE_CONSUMERS
            ):
                return True
        return False

    def _check_comprehension(
        self, module: ModuleContext, node: ast.ListComp | ast.GeneratorExp
    ) -> Iterator[Finding]:
        for generator in node.generators:
            if _is_set_shaped(generator.iter) and not self._sanitized(module, node):
                yield self.finding(
                    module, generator.iter,
                    "comprehension over a set builds an ordered result from "
                    "hash-salted iteration; wrap the iterable in sorted(...)",
                )

    def _check_for(self, module: ModuleContext, node: ast.For) -> Iterator[Finding]:
        if _is_set_shaped(node.iter):
            if _body_has_ordering_sink(node.body, module):
                yield self.finding(
                    module, node.iter,
                    "loop over a set feeds an ordering-sensitive construct "
                    "(append/heappush); wrap the iterable in sorted(...)",
                )
        elif _is_dict_view(node.iter):
            if _body_has_ordering_sink(node.body, module, heap_only=True):
                yield self.finding(
                    module, node.iter,
                    "loop over a dict view feeds a heap; make the order "
                    "explicit with sorted(...)",
                )

    def _check_materialize(self, module: ModuleContext, node: ast.Call) -> Iterator[Finding]:
        if not (isinstance(node.func, ast.Name) and node.func.id in ("list", "tuple")):
            return
        if len(node.args) == 1 and _is_set_shaped(node.args[0]):
            if not self._sanitized(module, node):
                yield self.finding(
                    module, node,
                    f"{node.func.id}() over a set captures hash-salted order; "
                    "use sorted(...) instead",
                )


@register_rule
class UnsortedListingRule(Rule):
    """DET004: directory listings whose order leaks into behaviour."""

    id = "DET004"
    title = "unsorted os.listdir/glob result; wrap in sorted(...)"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            label = self._listing_label(module, node)
            if label is None:
                continue
            if self._sorted_ancestor(module, node):
                continue
            yield self.finding(
                module, node,
                f"{label} order is filesystem-dependent; wrap the result "
                "in sorted(...)",
            )

    def _listing_label(self, module: ModuleContext, node: ast.Call) -> str | None:
        func = node.func
        for mod, fn in (
            ("os", "listdir"), ("os", "scandir"),
            ("glob", "glob"), ("glob", "iglob"),
        ):
            if module.resolves_to(func, mod, fn):
                return f"{mod}.{fn}()"
        if isinstance(func, ast.Attribute) and func.attr in ("glob", "rglob", "iterdir"):
            # Heuristic: .glob/.rglob/.iterdir is pathlib in this codebase.
            return f"Path.{func.attr}()"
        return None

    def _sorted_ancestor(self, module: ModuleContext, node: ast.AST) -> bool:
        current: ast.AST | None = node
        while current is not None and not isinstance(current, ast.stmt):
            if (
                isinstance(current, ast.Call)
                and isinstance(current.func, ast.Name)
                and current.func.id == "sorted"
            ):
                return True
            current = module.parents.get(current)
        return False


@register_rule
class MutableDefaultRule(Rule):
    """MUT001: mutable default argument values."""

    id = "MUT001"
    title = "mutable default argument; default to None and build inside"

    MUTABLE_CALLS = frozenset({
        "list", "dict", "set", "bytearray", "defaultdict", "OrderedDict",
        "Counter", "deque",
    })

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for default in [*node.args.defaults, *node.args.kw_defaults]:
                if default is not None and self._is_mutable(default):
                    yield self.finding(
                        module, default,
                        f"mutable default argument in {node.name}(); use None "
                        "and create the value inside the function",
                    )

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else ""
            )
            return name in self.MUTABLE_CALLS
        return False
