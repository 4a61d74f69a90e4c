"""Public-API consistency checks.

Guards against export drift: everything listed in each package's
``__all__`` must exist, the CLI's scheme registry must stay in sync
with the policy package, and the paper's core vocabulary must remain
importable from the documented locations.
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.dag",
    "repro.cluster",
    "repro.policies",
    "repro.core",
    "repro.control",
    "repro.simulator",
    "repro.tenancy",
    "repro.workloads",
    "repro.experiments",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{package}.__all__ lists missing {name}"


def test_all_lists_are_sorted():
    for package in PACKAGES:
        module = importlib.import_module(package)
        exported = getattr(module, "__all__", [])
        assert list(exported) == sorted(exported), f"{package}.__all__ unsorted"


def test_cli_schemes_construct():
    from repro.policies import CacheScheme
    from repro.sweep.schemes import SCHEME_SPECS, resolve_scheme

    for name in SCHEME_SPECS:
        scheme = resolve_scheme(name).build()
        assert isinstance(scheme, CacheScheme), name


def test_paper_vocabulary_importable():
    """The names a reader of the paper would look for."""
    from repro.core import (  # noqa: F401
        AppProfiler,
        CacheMonitor,
        MrdManager,
        MrdScheme,
        MrdTable,
    )
    from repro.policies import (  # noqa: F401
        BeladyScheme,
        LrcScheme,
        LruScheme,
        MemTuneScheme,
    )
    from repro.simulator import (  # noqa: F401
        LRC_CLUSTER,
        MAIN_CLUSTER,
        MEMTUNE_CLUSTER,
        simulate,
    )


def test_version_matches_pyproject():
    import pathlib

    import repro

    pyproject = pathlib.Path(repro.__file__).parents[2] / "pyproject.toml"
    assert f'version = "{repro.__version__}"' in pyproject.read_text()


#: Entry points that run simulations; none of them may need networkx,
#: which only the DAG export graphs (``repro.dag.visualize``) use.
SIMULATION_ENTRY_POINTS = [
    "repro.simulator.engine",
    "repro.experiments.fig4",
    "repro.sweep.runner",
    "repro.tenancy.engine",
    "repro.cli",
]


def test_simulation_entry_points_import_without_networkx():
    import pathlib
    import subprocess
    import sys

    import repro

    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); sys.modules['networkx'] = None; "
        f"import {', '.join(SIMULATION_ENTRY_POINTS)}"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
