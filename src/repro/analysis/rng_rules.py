"""RNG provenance: every RNG must be constructed from a seed.

The reproduction's headline guarantees — ``--jobs N`` bit-identity,
equal store digests, rpc-at-zero ≡ instant — all assume that *every*
random draw in the simulated world flows from an injected,
seed-threaded ``random.Random``.  DET001 bans draws on the
process-global ``random`` module; this module adds:

* **RNG101** — an RNG constructed without a seed
  (``random.Random()``, ``numpy.random.default_rng()``,
  ``numpy.random.RandomState()``, or any of them seeded with a literal
  ``None``) is seeded from the OS and can never be replayed.

A seeded module-level RNG read on a worker's path breaks the same
guarantees without any unseeded construction; the sweep runner's
parallel-equals-serial test (``tests/sweep/test_runner.py``) catches
that at runtime.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.base import ModuleContext, Rule, register_rule
from repro.analysis.findings import Finding


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


def _rng_constructor_label(ctx: ModuleContext, call: ast.Call) -> str | None:
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


@register_rule
class UnseededRngRule(Rule):
    """RNG101: RNG constructed without a seed expression."""

    id = "RNG101"
    title = "unseeded RNG construction; thread a seed from config/fingerprint"
    #: Tests and benchmarks do not define simulated behaviour.
    exempt = ("tests", "benchmarks")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            label = _rng_constructor_label(module, node)
            if label is None or _is_seeded(node):
                continue
            yield self.finding(
                module, node,
                f"{label}() constructed without a seed draws OS entropy and "
                "cannot be replayed; thread a seed derived from the "
                "config/fingerprint",
            )
