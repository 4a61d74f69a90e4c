"""Repository benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload paper-sweep --seed 0 --seconds 30 --trace 0

Runs from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` measures the same way, then runs one more set-up
and one more unit with spans around every layer's entry points and
prints the per-layer metrics instead.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The exit code is 1 when any output check fails.

See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import heapq
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from stats import percentile, ratio

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Iterations of the host-speed probe, and the probe's time at the
#: nominal host speed every timing is scaled to (see README.md).
PROBE_ITERATIONS = 60_000
PROBE_NOMINAL_S = 0.05

#: name -> (unit, better) for every metric the result line can carry.
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "sim_tasks_per_s": ("tasks/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "mrd_norm_jct": ("ratio", "lower"),
    "mrd_hit_ratio": ("ratio", "higher"),
}

PER_LAYER: dict[str, tuple[str, str]] = {
    "workloads.build_calls": ("count", "lower"),
    "workloads.build_s": ("s", "lower"),
    "dag.build_calls": ("count", "lower"),
    "dag.build_s": ("s", "lower"),
    "dag.peak_live_calls": ("count", "lower"),
    "dag.peak_live_s": ("s", "lower"),
    "simulator.runs": ("count", "higher"),
    "simulator.tasks": ("count", "higher"),
    "simulator.run_self_s": ("s", "lower"),
    "simulator.host_us_per_task": ("us", "lower"),
    "cluster.access_calls": ("count", "lower"),
    "cluster.access_s": ("s", "lower"),
    "cluster.put_calls": ("count", "lower"),
    "cluster.put_self_s": ("s", "lower"),
    "cluster.promote_calls": ("count", "lower"),
    "cluster.promote_s": ("s", "lower"),
    "cluster.hits": ("count", "higher"),
    "cluster.misses": ("count", "lower"),
    "cluster.evictions": ("count", "lower"),
    "cluster.failed_insertions": ("count", "lower"),
    "policies.select_calls": ("count", "lower"),
    "policies.select_s": ("s", "lower"),
    "policies.batch_calls": ("count", "higher"),
    "policies.batch_s": ("s", "lower"),
    "policies.batch_share": ("ratio", "higher"),
    "core.advance_calls": ("count", "lower"),
    "core.advance_s": ("s", "lower"),
    "core.plan_calls": ("count", "lower"),
    "core.plan_s": ("s", "lower"),
    "core.prefetches_issued": ("count", "higher"),
    "core.prefetches_used": ("count", "higher"),
    "core.prefetch_use_ratio": ("ratio", "higher"),
    "control.send_calls": ("count", "lower"),
    "control.send_s": ("s", "lower"),
    "control.pump_calls": ("count", "lower"),
    "control.pump_s": ("s", "lower"),
    "control.sent": ("count", "lower"),
    "control.dropped": ("count", "lower"),
    "control.stale_orders": ("count", "lower"),
    "control.delivered_ratio": ("ratio", "higher"),
    "tenancy.apps": ("count", "higher"),
    "tenancy.run_self_s": ("s", "lower"),
    "tenancy.arbitrate_calls": ("count", "lower"),
    "tenancy.arbitrate_s": ("s", "lower"),
    "sweep.cells": ("count", "higher"),
    "sweep.cells_failed": ("count", "lower"),
    "sweep.cell_ms_p50": ("ms", "lower"),
    "sweep.cell_ms_p90": ("ms", "lower"),
    "sweep.run_cell_self_s": ("s", "lower"),
    "sweep.store_put_calls": ("count", "lower"),
    "sweep.store_put_s": ("s", "lower"),
    "sweep.fingerprint_calls": ("count", "lower"),
    "sweep.fingerprint_s": ("s", "lower"),
    "bench.traced_wall_s": ("s", "lower"),
    "bench.tracing_overhead": ("ratio", "lower"),
    "bench.unattributed_s": ("s", "lower"),
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("paper-sweep", "sched-bound", "tenants-rpc")
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="workload seed (default: the workload's own, see README.md)",
    )
    parser.add_argument(
        "--seconds", type=float, default=30.0,
        help="measuring budget; units run while the next is predicted to fit (at least one)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_fresh(modules: tuple[str, ...]) -> None:
    """Start a fresh interpreter that imports ``modules``."""
    subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); "
         f"import {', '.join(modules)}"],
        check=True,
        cwd=ROOT,
    )


def probe() -> float:
    """Host seconds of a fixed piece of pure-Python work: heap pushes and
    pops and dict updates, the simulator's own staples."""
    start = time.perf_counter()
    heap: list = []
    counts: dict = {}
    for i in range(PROBE_ITERATIONS):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        counts[i & 511] = counts.get(i & 511, 0) + 1
        if len(heap) > 256:
            heapq.heappop(heap)
    return time.perf_counter() - start


def timed(fn) -> tuple[object, float, float]:
    """Run ``fn``; return its result, its host seconds, and those seconds
    scaled to the nominal host speed measured by probes around it."""
    before = probe()
    start = time.perf_counter()
    result = fn()
    host_s = time.perf_counter() - start
    speed = PROBE_NOMINAL_S / ((before + probe()) / 2)
    return result, host_s, host_s * speed


def measure(workload, inputs, seconds: float) -> tuple[list, list[float], list[float]]:
    """Run timed units while the next one is predicted to fit ``seconds``.

    Returns the units and, per unit, its host seconds and its seconds at
    nominal speed.  Only the first unit keeps its ``RunMetrics``; later
    units keep the digest they are checked against, so memory does not
    grow with the number of units.
    """
    units, host, scaled = [], [], []
    start = time.perf_counter()
    while True:
        outputs, host_s, scaled_s = [], 0.0, 0.0
        for step in workload.steps(inputs):
            output, step_host_s, step_scaled_s = timed(step)
            outputs.append(output)
            host_s += step_host_s
            scaled_s += step_scaled_s
        host.append(host_s)
        scaled.append(scaled_s)
        unit = workload.collect(inputs, outputs)
        if units:
            unit.runs = []
        units.append(unit)
        if time.perf_counter() - start + statistics.median(host) > seconds:
            return units, host, scaled


def latency_ms(units: list) -> list[float]:
    """Host latency of every operation of ``units``, in ms."""
    return [s * 1e3 for unit in units for s in unit.op_seconds]


def end_to_end(
    setup_s: float, units: list, host: list[float], scaled: list[float]
) -> dict[str, float]:
    wall = statistics.median(scaled)
    ops_ms = latency_ms(units)
    print(f"  {len(host)} timed unit(s), host s: {' '.join(f'{t:.3f}' for t in host)}")
    print(f"  at nominal speed, s: {' '.join(f'{t:.3f}' for t in scaled)}")
    print(f"  per-operation host latency "
          f"{percentile(ops_ms, 50).describe('ms')}, {percentile(ops_ms, 90).describe('ms')}")
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "sim_tasks_per_s": units[0].tasks / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mrd_norm_jct": units[0].mrd_norm_jct,
        "mrd_hit_ratio": units[0].mrd_hit_ratio,
    }


def per_layer(
    tracer, unit, traced_s: float, wall_s: float, unattributed_s: float, cells_ms: list[float]
) -> dict[str, float]:
    """Per-layer metrics of one traced set-up plus one traced unit.

    ``traced_s`` and ``wall_s`` are the traced and untraced unit at
    nominal speed; span times and ``cells_ms`` (the sweep cells' latency
    in the untraced units) are host time.
    """
    from workloads import simulated_tasks

    def calls(layer: str) -> int:
        return tracer.calls.get(layer, 0)

    def self_s(layer: str) -> float:
        return tracer.self_s.get(layer, 0.0)

    standalone = [m for m in unit.runs if m.app_id is None]
    sim_tasks = sum(simulated_tasks(m) for m in standalone)
    stats = [m.stats for m in unit.runs]
    control = [m.control for m in unit.runs]
    issued = sum(s.prefetches_issued for s in stats)
    used = sum(s.prefetches_used for s in stats)
    sent = sum(c.sent for c in control)
    return {
        "workloads.build_calls": calls("workloads.build"),
        "workloads.build_s": self_s("workloads.build"),
        "dag.build_calls": calls("dag.build"),
        "dag.build_s": self_s("dag.build"),
        "dag.peak_live_calls": calls("dag.peak_live"),
        "dag.peak_live_s": self_s("dag.peak_live"),
        "simulator.runs": calls("simulator.run"),
        "simulator.tasks": sim_tasks,
        "simulator.run_self_s": self_s("simulator.run"),
        "simulator.host_us_per_task": ratio(
            tracer.total_s.get("simulator.run", 0.0) * 1e6, sim_tasks
        ),
        "cluster.access_calls": calls("cluster.access"),
        "cluster.access_s": self_s("cluster.access"),
        "cluster.put_calls": calls("cluster.put"),
        "cluster.put_self_s": self_s("cluster.put"),
        "cluster.promote_calls": calls("cluster.promote"),
        "cluster.promote_s": self_s("cluster.promote"),
        "cluster.hits": sum(s.hits for s in stats),
        "cluster.misses": sum(s.misses for s in stats),
        "cluster.evictions": sum(s.evictions for s in stats),
        "cluster.failed_insertions": sum(s.failed_insertions for s in stats),
        "policies.select_calls": calls("policies.select"),
        "policies.select_s": self_s("policies.select"),
        "policies.batch_calls": calls("policies.batch"),
        "policies.batch_s": self_s("policies.batch"),
        "policies.batch_share": ratio(calls("policies.batch"), calls("policies.select")),
        "core.advance_calls": calls("core.advance"),
        "core.advance_s": self_s("core.advance"),
        "core.plan_calls": calls("core.plan"),
        "core.plan_s": self_s("core.plan"),
        "core.prefetches_issued": issued,
        "core.prefetches_used": used,
        "core.prefetch_use_ratio": ratio(used, issued),
        "control.send_calls": calls("control.send"),
        "control.send_s": self_s("control.send"),
        "control.pump_calls": calls("control.pump"),
        "control.pump_s": self_s("control.pump"),
        "control.sent": sent,
        "control.dropped": sum(c.dropped for c in control),
        "control.stale_orders": sum(c.stale_orders for c in control),
        "control.delivered_ratio": ratio(sum(c.delivered for c in control), sent),
        "tenancy.apps": unit.tenant_apps,
        "tenancy.run_self_s": self_s("tenancy.run"),
        "tenancy.arbitrate_calls": calls("tenancy.arbitrate"),
        "tenancy.arbitrate_s": self_s("tenancy.arbitrate"),
        "sweep.cells": calls("sweep.run_cell"),
        "sweep.cells_failed": unit.failed,
        "sweep.cell_ms_p50": percentile(cells_ms, 50).value if cells_ms else 0.0,
        "sweep.cell_ms_p90": percentile(cells_ms, 90).value if cells_ms else 0.0,
        "sweep.run_cell_self_s": self_s("sweep.run_cell"),
        "sweep.store_put_calls": calls("sweep.store_put"),
        "sweep.store_put_s": self_s("sweep.store_put"),
        "sweep.fingerprint_calls": calls("sweep.fingerprint"),
        "sweep.fingerprint_s": self_s("sweep.fingerprint"),
        "bench.traced_wall_s": traced_s,
        "bench.tracing_overhead": traced_s / wall_s,
        "bench.unattributed_s": unattributed_s,
    }


def traced_run(workload, seed: int, scratch: Path, wall_s: float, cells_ms: list[float]):
    """One traced set-up and one traced unit; returns (unit, metrics, failures)."""
    from tracing import HOOKS, Tracer, installed

    tracer = Tracer()
    failures = []
    with installed(tracer) as patch:
        failures += [f"traced run: {b} still holds the untraced function"
                     for b in patch.unbound()]
        failures += [f"traced run: {h.layer} entry point patched nowhere"
                     for h in HOOKS if not patch.bindings(h.layer)]
        inputs = workload.setup(seed, scratch)
        outputs, traced_host_s, traced_s = [], 0.0, 0.0
        top_before = tracer.top_level_s
        for step in workload.steps(inputs):
            output, step_host_s, step_scaled_s = timed(step)
            outputs.append(output)
            traced_host_s += step_host_s
            traced_s += step_scaled_s
        top_level_s = tracer.top_level_s - top_before
    unit = workload.collect(inputs, outputs)
    failures += [f"traced run: {layer} recorded no calls on {workload.name}"
                 for layer in workload.expected_layers if not tracer.calls.get(layer)]
    # Span times are host seconds; scale what they leave unattributed.
    unattributed_s = (traced_host_s - top_level_s) * traced_s / traced_host_s
    metrics = per_layer(tracer, unit, traced_s, wall_s, unattributed_s, cells_ms)
    return unit, metrics, failures


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    scratch_root = ROOT / ".perfbench-tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch_root))
    try:
        def set_up():
            import_fresh(workload.imports)
            return workload.setup(seed, scratch)

        setups = []
        for _ in range(SETUP_REPEATS):
            inputs, _, scaled_s = timed(set_up)
            setups.append(scaled_s)
        print(f"{workload.name} seed {seed}: set-ups at nominal speed, s: "
              f"{' '.join(f'{t:.3f}' for t in setups)}")
        units, host, scaled = measure(workload, inputs, args.seconds)
        metrics = end_to_end(statistics.median(setups), units, host, scaled)
        failures = []
        if args.trace:
            cells_ms = latency_ms(units) if workload.operation == "cell" else []
            unit, metrics, failures = traced_run(
                workload, seed, scratch, metrics["wall_s"], cells_ms
            )
            units.append(unit)
        attempted, check_failures = workload.check(inputs, units)
        failures += check_failures
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    attempted += sum(len(unit.op_seconds) for unit in units)
    failed = sum(unit.failed for unit in units) + len(failures)
    units_of = PER_LAYER if args.trace else END_TO_END
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>16.6f} {units_of[name][0]}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units_of[name][0]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
