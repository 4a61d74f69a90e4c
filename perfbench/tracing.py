"""Per-layer host-time spans, recorded from outside the simulator.

A :class:`Tracer` wraps the public entry points of each ``repro`` layer
(see :data:`HOOKS`) while it is installed, and folds every span into
per-layer totals as the span closes: call count, inclusive time and
self time (duration minus the time covered by child spans).  Totals are
kept instead of the spans themselves because one traced paper-sweep
crosses tens of millions of layer boundaries.

Nothing under ``src/`` is instrumented.  Methods are patched on their
classes (and on every subclass that overrides them); functions are
patched in the defining module *and* in every loaded module that bound
the name with ``from ... import`` (``repro.experiments.harness`` binds
``build_dag`` that way, and so does this benchmark), since such a binding
keeps the original function object.  :meth:`Installation.unbound` is the
self-check that no loaded module still holds an original.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass


class Tracer:
    """Accumulates nested spans into per-layer calls, total and self time."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        #: Inclusive time of spans opened with no span around them.
        self.top_level_s = 0.0
        #: Open spans, innermost last: ``[layer, start, child_s]``.
        self._stack: list[list] = []
        self._open: set[str] = set()

    def enter(self, layer: str) -> None:
        self._open.add(layer)
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self) -> None:
        layer, start, child_s = self._stack.pop()
        duration = self.clock() - start
        self._open.discard(layer)
        self.calls[layer] = self.calls.get(layer, 0) + 1
        self.total_s[layer] = self.total_s.get(layer, 0.0) + duration
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.top_level_s += duration

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        self.enter(layer)
        try:
            yield
        finally:
            self.exit()

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` recording one ``layer`` span per outermost call.

        A call made while a span of the same layer is open (an override
        calling ``super()``, say) folds into the open span, so a layer's
        call count is the number of times control crossed into it.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer in self._open:
                return fn(*args, **kwargs)
            self.enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced


@dataclass(frozen=True)
class Hook:
    """One traced entry point: ``target`` is ``Class.method`` or ``function``."""

    layer: str
    module: str
    target: str
    #: Also wrap every subclass that overrides the method.
    overrides: bool = False
    #: Subclass names whose override belongs to another layer.
    exclude: tuple[str, ...] = ()


HOOKS: tuple[Hook, ...] = (
    Hook("workloads.build", "repro.workloads.base", "WorkloadSpec.build"),
    Hook("dag.build", "repro.dag.dag_builder", "build_dag"),
    Hook("dag.peak_live", "repro.dag.analysis", "peak_live_cached_mb"),
    Hook("simulator.run", "repro.simulator.engine", "SparkSimulator.run"),
    Hook("cluster.access", "repro.cluster.block_manager", "BlockManager.access"),
    Hook("cluster.put", "repro.cluster.memory_store", "MemoryStore.put"),
    Hook("cluster.promote", "repro.cluster.block_manager", "BlockManager.promote_from_disk"),
    Hook(
        "policies.select", "repro.policies.base", "EvictionPolicy.select_victims",
        overrides=True, exclude=("ArbitratedNodePolicy",),
    ),
    Hook("policies.batch", "repro.policies.vectorized", "select_block_victims"),
    Hook("core.advance", "repro.core.mrd_table", "MrdTable.advance"),
    Hook("core.plan", "repro.core.manager", "MrdManager.on_stage_start"),
    Hook("control.send", "repro.control.plane", "ControlPlane.send", overrides=True),
    Hook("control.pump", "repro.control.plane", "ControlPlane.pump", overrides=True),
    Hook("tenancy.run", "repro.tenancy.engine", "MultiTenantSimulator.run"),
    Hook("tenancy.arbitrate", "repro.tenancy.arbitration", "ArbitratedNodePolicy.select_victims"),
    Hook("sweep.run_cell", "repro.sweep.runner", "run_cell"),
    Hook("sweep.store_put", "repro.sweep.store", "ResultStore.put"),
    Hook("sweep.fingerprint", "repro.sweep.spec", "CellSpec.fingerprint"),
)

#: Modules imported before patching so every subclass override and
#: every ``from ... import`` binding of a traced function exists.
PRELOAD: tuple[str, ...] = (
    "repro.policies",
    "repro.core",
    "repro.control",
    "repro.tenancy",
    "repro.sweep.runner",
    "repro.experiments.harness",
    "repro.workloads.registry",
)


def _subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _module_bindings() -> Iterator[tuple[object, str, object]]:
    """``(module, name, value)`` for every global of every loaded module."""
    for module in list(sys.modules.values()):
        for attr, value in list(getattr(module, "__dict__", {}).items()):
            yield module, attr, value


class Installation:
    """The patches one :func:`install` made, and how to undo them."""

    def __init__(self) -> None:
        #: ``(layer, owner, attribute, original)`` per patched binding.
        self.patched: list[tuple[str, object, str, Callable]] = []

    def bindings(self, layer: str) -> list[str]:
        """Where ``layer``'s entry point was patched, as ``owner.attr``."""
        return [
            f"{owner.__name__}.{attr}"
            for name, owner, attr, _ in self.patched
            if name == layer
        ]

    def unbound(self) -> list[str]:
        """Every loaded module global that still holds an original traced
        function (empty when the install is complete)."""
        originals = {id(original) for _, _, _, original in self.patched}
        return [
            f"{module.__name__}.{attr}"
            for module, attr, value in _module_bindings()
            if id(value) in originals
        ]

    def uninstall(self) -> None:
        for _, owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()


def install(tracer: Tracer, hooks: tuple[Hook, ...] = HOOKS) -> Installation:
    """Patch every hook's entry point to record spans into ``tracer``."""
    for name in PRELOAD:
        importlib.import_module(name)
    done = Installation()
    for hook in hooks:
        module = importlib.import_module(hook.module)
        if "." in hook.target:
            class_name, method = hook.target.split(".")
            cls = getattr(module, class_name)
            owners = [cls]
            if hook.overrides:
                owners += [
                    sub for sub in dict.fromkeys(_subclasses(cls))
                    if method in vars(sub) and sub.__name__ not in hook.exclude
                ]
            for owner in owners:
                original = vars(owner)[method]
                setattr(owner, method, tracer.wrap(hook.layer, original))
                done.patched.append((hook.layer, owner, method, original))
        else:
            original = getattr(module, hook.target)
            wrapped = tracer.wrap(hook.layer, original)
            for bound, attr, value in _module_bindings():
                if value is original:
                    setattr(bound, attr, wrapped)
                    done.patched.append((hook.layer, bound, attr, original))
    return done


@contextmanager
def installed(tracer: Tracer) -> Iterator[Installation]:
    done = install(tracer)
    try:
        yield done
    finally:
        done.uninstall()
