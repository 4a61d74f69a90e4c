"""Fixture-based tests: one positive and one negative file per rule.

Each rule must (a) fire on every construct its ``*_bad.py`` fixture
stages and (b) stay silent on the ``*_ok.py`` twin, which shows the
sanctioned way to write the same thing.  Rules are exercised through
:func:`lint_file` with scoping off, so path-scoped rules (DET002,
DET003) still see the fixture files.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import get_rule
from repro.analysis.runner import lint_file

FIXTURES = Path(__file__).parent / "fixtures"

#: rule id → number of findings its positive fixture stages.
EXPECTED_POSITIVES = {
    "DET001": 4,
    "DET002": 5,
    "DET003": 4,
    "DET004": 3,
    "MUT001": 4,
    "RNG101": 3,
}


def _lint(rule_id: str, name: str):
    return lint_file(FIXTURES / name, [get_rule(rule_id)], scoped=False)


@pytest.mark.parametrize("rule_id", sorted(EXPECTED_POSITIVES))
def test_positive_fixture_fires(rule_id):
    findings = _lint(rule_id, f"{rule_id.lower()}_bad.py")
    assert len(findings) == EXPECTED_POSITIVES[rule_id], [
        f.render() for f in findings
    ]
    assert all(f.rule == rule_id for f in findings)


@pytest.mark.parametrize("rule_id", sorted(EXPECTED_POSITIVES))
def test_negative_fixture_is_clean(rule_id):
    findings = _lint(rule_id, f"{rule_id.lower()}_ok.py")
    assert findings == [], [f.render() for f in findings]


def test_findings_carry_locations():
    findings = _lint("DET001", "det001_bad.py")
    assert all(f.line > 0 and f.col > 0 for f in findings)
    assert all(f.path.endswith("det001_bad.py") for f in findings)
    rendered = findings[0].render()
    assert ":" in rendered and "DET001" in rendered


def test_det001_names_the_draw_function():
    findings = _lint("DET001", "det001_bad.py")
    messages = " ".join(f.message for f in findings)
    assert "random.seed()" in messages
    assert "random.Random" in messages  # every message points at the fix


def test_rng101_names_each_constructor():
    messages = " ".join(f.message for f in _lint("RNG101", "rng101_bad.py"))
    assert "random.Random" in messages
    assert "default_rng" in messages
    assert "RandomState" in messages


#: The two draw shapes a seeded ``rng=`` API can leak to the global RNG
#: through: a direct ``random.X()`` call, and a callee that imported
#: ``X`` from random.  DET001 alone must flag both.
LEAKED_DRAWS = {
    "direct": (
        "import random\n\n\ndef sample(items, rng):\n"
        "    return random.choice(items)\n",
        "random.choice()",
    ),
    "callee": (
        "from random import gauss\n\n\ndef jitter():\n"
        "    return gauss(0.0, 1.0)\n\n\ndef pick(items, rng):\n"
        "    return items[int(jitter()) % len(items)]\n",
        "importing gauss from random",
    ),
}


@pytest.mark.parametrize("shape", sorted(LEAKED_DRAWS))
def test_det001_flags_a_global_draw_behind_an_rng_parameter(tmp_path, shape):
    source, expected = LEAKED_DRAWS[shape]
    path = tmp_path / "api.py"
    path.write_text(source)
    findings = lint_file(path, [get_rule("DET001")], scoped=False)
    assert len(findings) == 1, [f.render() for f in findings]
    assert expected in findings[0].message


def test_det002_scope_covers_the_simulated_world():
    rule = get_rule("DET002")
    assert rule.in_scope("src/repro/simulator/engine.py")
    assert rule.in_scope("src/repro/core/mrd_table.py")
    assert rule.in_scope("src/repro/policies/lru.py")
    assert rule.in_scope("src/repro/control/plane.py")
    # The sweep runner legitimately times things.
    assert not rule.in_scope("src/repro/sweep/runner.py")


def test_det001_covers_bench():
    rule = get_rule("DET001")
    assert rule.in_scope("src/repro/cluster/cluster.py")
    assert rule.in_scope("src/repro/bench/engine_bench.py")
    assert not rule.in_scope("tests/workloads/test_synthetic.py")
    assert not rule.in_scope("benchmarks/test_engine_scale.py")


def test_unknown_rule_id_raises():
    with pytest.raises(KeyError, match="DET001"):
        get_rule("NOPE999")
