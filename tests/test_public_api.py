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


#: Entry points that run simulations.  None of them may need networkx,
#: which only the DAG export graphs (``repro.dag.visualize``) use, or
#: numpy, which only the columnar batch selection and the Fig. 11/12
#: fit use.
SIMULATION_ENTRY_POINTS = [
    "repro.simulator.engine",
    "repro.experiments.fig4",
    "repro.sweep.runner",
    "repro.tenancy.engine",
    "repro.cli",
]

#: One small simulation per scheme whose stores stay below every batch
#: threshold (LRU/FIFO 512 blocks, LFU 128), under cache pressure.
_SMALL_RUNS = """
import json
from repro.experiments.harness import build_workload_dag, cache_mb_for
from repro.simulator import TEST_CLUSTER, simulate
from repro.simulator.reporting import metrics_to_dict
from repro.sweep.schemes import resolve_scheme

dag = build_workload_dag("KM", partitions=8)
cluster = TEST_CLUSTER.with_cache(cache_mb_for(dag, 0.1, TEST_CLUSTER))
print(json.dumps({
    name: metrics_to_dict(simulate(dag, cluster, resolve_scheme(name).build()))
    for name in ("LRU", "MRD")
}))
"""


def test_simulation_entry_points_run_without_networkx_or_numpy():
    import json
    import pathlib
    import subprocess
    import sys

    import repro

    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)

    def run(block: str) -> dict:
        code = (
            f"import sys; sys.path.insert(0, {src!r}); {block}"
            f"import {', '.join(SIMULATION_ENTRY_POINTS)}\n{_SMALL_RUNS}"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    blocked = run("sys.modules['networkx'] = None; sys.modules['numpy'] = None; ")
    assert blocked == run("")
    assert blocked["LRU"]["evictions"] > 0 and blocked["MRD"]["evictions"] > 0
