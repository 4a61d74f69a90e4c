"""Full evaluation report: run every experiment and render markdown.

``python -m repro report [-o FILE]`` regenerates the complete
evaluation section — all tables and figures plus the headline claims
table (:mod:`repro.experiments.claims`) — from scratch.  Figures 4–10
run as one grid (:func:`cells`) in one ``run_cells`` call: one pool,
one result store.  Each figure's rows are reduced once and feed both
its rendered table and the claims.  A report takes under 20 s on one
core; it is deterministic at any job count.
"""

from __future__ import annotations

import io
from pathlib import Path

from repro.experiments import (
    claims,
    fig2,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11_12,
    table1,
    table3,
)
from repro.sweep.progress import SweepProgress
from repro.sweep.runner import run_cells
from repro.sweep.spec import CellSpec


#: Figures 4–10, the one grid's drivers, by name, with their section titles.
FIGURES = {
    "fig4": (fig4, "Figure 4 — overall performance"),
    "fig5": (fig5, "Figure 5 — vs LRC"),
    "fig6": (fig6, "Figure 6 — vs MemTune"),
    "fig7": (fig7, "Figure 7 — cache-size sweep (SVD++)"),
    "fig8": (fig8, "Figure 8 — stage vs job distance"),
    "fig9": (fig9, "Figure 9 — ad-hoc vs recurring"),
    "fig10": (fig10, "Figure 10 — iteration scaling"),
}


def cells() -> list[CellSpec]:
    """The report's grid: Figures 4–10's default cells, concatenated."""
    return [c for fig, _ in FIGURES.values() for c in fig.cells()]


def generate_report(
    out: Path | None = None,
    progress: bool = False,
    jobs: int = 1,
    store=None,
) -> tuple[str, list[str]]:
    """Run the full evaluation; returns (and optionally writes) markdown.

    Returns the markdown and one line per claim outside its band
    (:func:`repro.experiments.claims.failures`; empty when every claim
    holds).  ``jobs``/``store`` apply to the grid of Figures 4–10: with
    a store, a rerun after an interrupt (or a tweak to one figure)
    recomputes only the missing cells.  With ``progress``, each cell
    prints a line to stderr and the grid's stats line follows.
    """
    buf = io.StringIO()

    def say(msg: str) -> None:
        if progress:
            print(msg, flush=True)

    def section(title: str, body: str) -> None:
        buf.write(f"\n## {title}\n\n```\n{body}\n```\n")

    buf.write("# MRD reproduction — regenerated evaluation\n")
    buf.write(
        "\nEvery block below is produced by `repro.experiments.*` "
        "drivers; see EXPERIMENTS.md for the paper-vs-measured "
        "discussion.\n"
    )

    say("table 1 ...")
    section("Table 1 — reference distances", table1.render(table1.run()))
    say("table 3 ...")
    section("Table 3 — workload characteristics", table3.render(table3.run()))

    say("figure 2 ...")
    trace = fig2.run("CC", max_rdds=8)
    section(
        "Figure 2 — policy metric traces (CC)",
        "\n\n".join(fig2.render(trace, p) for p in ("lru", "lrc", "mrd")),
    )

    outcome = run_cells(
        cells(), jobs=jobs, store=store, progress=SweepProgress() if progress else None
    ).raise_on_error()
    say(outcome.stats_line())

    reduced = {name: fig.reduce(outcome) for name, (fig, _) in FIGURES.items()}
    for name, (fig, title) in FIGURES.items():
        section(title, fig.render(reduced[name]))
    say("figures 11-12 ...")
    reduced["fig11_12"] = fig11_12.run(reduced["fig4"])
    section("Figures 11-12 — benefit predictors", fig11_12.render(reduced["fig11_12"]))

    results = claims.evaluate(reduced)
    buf.write(f"\n## Headline summary\n\n{claims.render(results)}\n")

    text = buf.getvalue()
    if out is not None:
        Path(out).write_text(text)
    return text, claims.failures(results)
