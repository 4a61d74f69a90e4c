"""Self-lint gate: the shipped tree passes its own analyzer.

This is the acceptance criterion for the determinism contract — every
DET/MUT finding in ``src/repro`` is fixed at the source or carries a
``# repro: noqa[RULE]`` suppression, so any new finding fails CI
immediately.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_repro_is_clean():
    result = lint_paths([REPO_ROOT / "src" / "repro"])
    assert result.ok, [f.render() for f in result.findings]
    assert result.files_checked > 100  # the whole tree, not a subset
