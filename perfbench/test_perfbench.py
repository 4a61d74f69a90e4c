"""Unit tests for the benchmark's helpers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from stats import percentile  # noqa: E402

#: Metric names the result line may carry.
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]{1,64}")


# ----------------------------------------------------------------------
# percentiles with their sample counts
# ----------------------------------------------------------------------
def test_percentile_reports_samples_and_tail():
    values = [float(v) for v in range(1, 101)]
    p90 = percentile(values, 90)
    assert (p90.value, p90.samples, p90.beyond) == (90.0, 100, 10)
    p50 = percentile(values, 50)
    assert (p50.value, p50.beyond) == (50.0, 50)


def test_percentile_is_an_observed_value_and_ignores_order():
    values = [3.0, 1.0, 2.0, 10.0]
    assert percentile(values, 50).value == 2.0
    assert percentile(values, 100).value == 10.0
    assert percentile(values, 100).beyond == 0


def test_percentile_of_336_cells_leaves_33_beyond_p90():
    p90 = percentile([float(v) for v in range(336)], 90)
    assert p90.samples == 336
    assert p90.beyond == 33


def test_percentile_counts_ties_as_not_beyond():
    p50 = percentile([1.0, 1.0, 1.0, 2.0], 50)
    assert (p50.value, p50.beyond) == (1.0, 1)


@pytest.mark.parametrize("q", [0, -1, 101])
def test_percentile_rejects_out_of_range(q):
    with pytest.raises(ValueError):
        percentile([1.0], q)


def test_percentile_rejects_no_samples():
    with pytest.raises(ValueError):
        percentile([], 50)


# ----------------------------------------------------------------------
# self time on nested spans
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    with tracer.span("sim"):
        clock.now += 1.0
        with tracer.span("put"):
            clock.now += 2.0
            with tracer.span("select"):
                clock.now += 0.5
        clock.now += 0.25
        with tracer.span("put"):
            clock.now += 1.0
    assert tracer.calls == {"sim": 1, "put": 2, "select": 1}
    assert tracer.total_s["sim"] == pytest.approx(4.75)
    assert tracer.self_s["sim"] == pytest.approx(1.25)
    assert tracer.self_s["put"] == pytest.approx(3.0)
    assert tracer.total_s["put"] == pytest.approx(3.5)
    assert tracer.self_s["select"] == pytest.approx(0.5)
    # Self times of a tree add up to its root's duration.
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.top_level_s)
    assert tracer.top_level_s == pytest.approx(4.75)


def test_reentrant_calls_fold_into_the_open_span():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def inner():
        clock.now += 1.0

    def outer():
        clock.now += 1.0
        wrapped_inner()

    wrapped_inner = tracer.wrap("policies.select", inner)
    tracer.wrap("policies.select", outer)()
    wrapped_inner()
    assert tracer.calls == {"policies.select": 2}
    assert tracer.self_s["policies.select"] == pytest.approx(3.0)
    assert tracer.top_level_s == pytest.approx(3.0)


def test_span_closes_when_the_call_raises():
    tracer = tracing.Tracer(FakeClock())

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("cluster.put", boom)()
    assert tracer.calls == {"cluster.put": 1}
    assert not tracer._stack and not tracer._open


# ----------------------------------------------------------------------
# the patch self-check
# ----------------------------------------------------------------------
def test_install_patches_from_import_bindings_and_restores():
    from repro.dag import dag_builder
    from repro.experiments import harness

    original = dag_builder.build_dag
    assert harness.build_dag is original
    consumer = types.ModuleType("perfbench_test_consumer")
    consumer.build_dag = original
    sys.modules[consumer.__name__] = consumer
    try:
        tracer = tracing.Tracer()
        with tracing.installed(tracer) as patch:
            assert harness.build_dag is not original
            assert consumer.build_dag is dag_builder.build_dag
            assert patch.unbound() == []
            assert "repro.experiments.harness.build_dag" in patch.bindings("dag.build")
            for hook in tracing.HOOKS:
                assert patch.bindings(hook.layer), hook.layer
        assert harness.build_dag is original
        assert consumer.build_dag is original
    finally:
        del sys.modules[consumer.__name__]


def test_install_wraps_every_select_victims_override_but_arbitration():
    from repro.policies.base import EvictionPolicy
    from repro.tenancy.arbitration import ArbitratedNodePolicy

    with tracing.installed(tracing.Tracer()) as patch:
        owners = set(patch.bindings("policies.select"))
        overriding = {
            f"{cls.__name__}.select_victims"
            for cls in [EvictionPolicy, *tracing._subclasses(EvictionPolicy)]
            if "select_victims" in vars(cls)
        }
        assert owners == overriding - {"ArbitratedNodePolicy.select_victims"}
        assert patch.bindings("tenancy.arbitrate") == ["ArbitratedNodePolicy.select_victims"]
        assert hasattr(ArbitratedNodePolicy.select_victims, "__wrapped__")
    assert not hasattr(ArbitratedNodePolicy.select_victims, "__wrapped__")


# ----------------------------------------------------------------------
# metric names
# ----------------------------------------------------------------------
def test_metric_names_are_valid():
    for name in [*run.END_TO_END, *run.PER_LAYER]:
        assert METRIC_NAME.fullmatch(name), name


def test_benchmark_json_lists_exactly_the_metrics_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_metric_functions_emit_exactly_the_declared_names():
    from workloads import UnitResult

    unit = UnitResult(
        op_seconds=[0.5, 1.5], runs=[], tasks=10, mrd_norm_jct=0.6, mrd_hit_ratio=0.9
    )
    assert set(run.end_to_end(1.0, [unit], [2.0], [1.5])) == set(run.END_TO_END)
    layers = run.per_layer(tracing.Tracer(), unit, 2.0, 1.0, 1.5, cells_ms=[])
    assert set(layers) == set(run.PER_LAYER)
    assert layers["sweep.cell_ms_p50"] == 0.0
