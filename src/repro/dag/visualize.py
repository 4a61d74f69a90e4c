"""DAG export: networkx graphs and Graphviz DOT text.

Two views, matching the paper's Figure 1:

* the **lineage graph** — RDDs as nodes, dependencies as edges (solid
  for narrow, dashed for shuffle), cached RDDs highlighted;
* the **stage graph** — stages as nodes grouped by job, skipped stages
  greyed out, annotated with their cache reads/writes.

``to_dot`` output renders with any Graphviz install; the networkx
graphs support programmatic analysis (the property tests use them for
acyclicity checks).  networkx is imported by the two graph builders
only, so importing the library (and running simulations) never loads
it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.dag.dag_builder import ApplicationDAG
from repro.dag.rdd import NarrowDependency

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import networkx as nx


def lineage_graph(dag: ApplicationDAG) -> nx.DiGraph:
    """RDD lineage as a directed graph (parent → child edges)."""
    import networkx

    g = networkx.DiGraph()
    for rdd in dag.app.rdds:
        g.add_node(
            rdd.id,
            name=rdd.name,
            op=rdd.op,
            cached=rdd.id in dag.profiles,
            partitions=rdd.num_partitions,
            size_mb=rdd.size_mb,
        )
    for rdd in dag.app.rdds:
        for dep in rdd.deps:
            g.add_edge(dep.parent.id, rdd.id, narrow=isinstance(dep, NarrowDependency))
    return g


def stage_graph(dag: ApplicationDAG) -> nx.DiGraph:
    """Stage dependency graph (parent stage → child stage)."""
    import networkx

    g = networkx.DiGraph()
    # Read once: the DAG rebuilds a skipped stage on every read.
    stages = list(dag.stages)
    for stage in stages:
        g.add_node(
            stage.id,
            job=stage.job_id,
            seq=stage.seq,
            skipped=stage.skipped,
            result=stage.is_result,
            rdd=stage.rdd.name,
        )
    for stage in stages:
        for pid in stage.parent_stage_ids:
            g.add_edge(pid, stage.id)
    return g


def lineage_to_dot(dag: ApplicationDAG) -> str:
    """Graphviz DOT for the lineage view (paper Figure 1 style)."""
    lines = [
        "digraph lineage {",
        "  rankdir=LR;",
        '  node [shape=box, fontname="monospace"];',
    ]
    for rdd in dag.app.rdds:
        style = 'style=filled, fillcolor="#cfe8cf"' if rdd.id in dag.profiles else ""
        label = f"{rdd.name}\\n{rdd.num_partitions}p {rdd.size_mb:.0f}MB"
        lines.append(f'  r{rdd.id} [label="{label}" {style}];')
    for rdd in dag.app.rdds:
        for dep in rdd.deps:
            style = "" if isinstance(dep, NarrowDependency) else ' [style=dashed, label="shuffle"]'
            lines.append(f"  r{dep.parent.id} -> r{rdd.id}{style};")
    lines.append("}")
    return "\n".join(lines)


def stages_to_dot(dag: ApplicationDAG, include_skipped: bool = True) -> str:
    """Graphviz DOT for the stage view, clustered by job.

    Without skipped stages only the active ones are read; with them,
    every stage is read once (the DAG rebuilds a skipped stage on every
    read)."""
    lines = [
        "digraph stages {",
        "  rankdir=LR;",
        '  node [shape=box, fontname="monospace"];',
    ]
    if include_skipped:
        stages = list(dag.stages)
        by_job = [[stages[sid] for sid in job.stage_ids] for job in dag.jobs]
    else:
        by_job = [[dag.stage(sid) for sid in job.active_stage_ids] for job in dag.jobs]
        stages = [stage for job_stages in by_job for stage in job_stages]
    for job, job_stages in zip(dag.jobs, by_job):
        lines.append(f"  subgraph cluster_job{job.id} {{")
        lines.append(f'    label="job {job.id} ({job.action})";')
        for stage in job_stages:
            if stage.skipped:
                attr = 'style=dashed, color=gray, fontcolor=gray'
                label = f"stage {stage.id}\\n(skipped)"
            else:
                reads = ",".join(r.name for r in stage.cache_reads) or "-"
                label = f"stage {stage.id} seq={stage.seq}\\nreads: {reads}"
                attr = 'style=filled, fillcolor="#dde8f8"' if stage.is_result else ""
            lines.append(f'    s{stage.id} [label="{label}" {attr}];')
        lines.append("  }")
    drawn = None if include_skipped else {stage.id for stage in stages}
    for stage in stages:
        for pid in stage.parent_stage_ids:
            if drawn is None or pid in drawn:
                lines.append(f"  s{pid} -> s{stage.id};")
    lines.append("}")
    return "\n".join(lines)
