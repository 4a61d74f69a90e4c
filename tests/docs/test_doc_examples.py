"""Execute the fenced python examples in the docs against the live code.

Each documented example in docs/policies.md and docs/sweeping.md runs
here exactly as printed (blocks within one document share a namespace,
so later examples may build on earlier ones).  A doc edit that breaks
an example — or a code change that invalidates the documented API —
fails this test.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Documents whose ```python blocks are executable end-to-end.
EXECUTABLE_DOCS = (
    "docs/policies.md",
    "docs/sweeping.md",
    "docs/multitenancy.md",
    "docs/elasticity.md",
)

_PYTHON_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def _blocks(relpath: str) -> list[str]:
    return _PYTHON_FENCE.findall((REPO_ROOT / relpath).read_text())


@pytest.mark.parametrize("relpath", EXECUTABLE_DOCS)
def test_python_examples_run(relpath):
    blocks = _blocks(relpath)
    assert blocks, f"{relpath} has no ```python examples to run"
    namespace: dict = {"__name__": f"docexample:{relpath}"}
    for index, source in enumerate(blocks):
        code = compile(source, f"{relpath}[example {index}]", "exec")
        exec(code, namespace)  # noqa: S102 - executing our own docs is the point
