"""Full evaluation report: run every experiment and render markdown.

``python -m repro report [-o FILE]`` regenerates the complete
evaluation section — all tables and figures plus the headline summary —
from scratch.  Figures 4–10 run as one grid (:func:`cells`) in one
``run_cells`` call: one pool, one result store.  A report takes under
20 s on one core; it is deterministic at any job count.
"""

from __future__ import annotations

import io
from pathlib import Path

from repro.experiments import (
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


def cells() -> list[CellSpec]:
    """The report's grid: Figures 4–10's default cells, concatenated."""
    return [c for fig in (fig4, fig5, fig6, fig7, fig8, fig9, fig10) for c in fig.cells()]


def generate_report(
    out: Path | None = None,
    progress: bool = False,
    jobs: int = 1,
    store=None,
) -> str:
    """Run the full evaluation; returns (and optionally writes) markdown.

    ``jobs``/``store`` apply to the grid of Figures 4–10: with a store,
    a rerun after an interrupt (or a tweak to one figure) recomputes
    only the missing cells.  With ``progress``, each cell prints a line
    to stderr and the grid's stats line follows.
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

    rows4 = fig4.reduce(outcome)
    section("Figure 4 — overall performance", fig4.render(rows4))
    section("Figure 5 — vs LRC", fig5.render(fig5.reduce(outcome)))
    section("Figure 6 — vs MemTune", fig6.render(fig6.reduce(outcome)))
    section("Figure 7 — cache-size sweep (SVD++)", fig7.render(fig7.reduce(outcome)))
    section("Figure 8 — stage vs job distance", fig8.render(fig8.reduce(outcome)))
    section("Figure 9 — ad-hoc vs recurring", fig9.render(fig9.reduce(outcome)))
    section("Figure 10 — iteration scaling", fig10.render(fig10.reduce(outcome)))
    say("figures 11-12 ...")
    section("Figures 11-12 — benefit predictors", fig11_12.render(fig11_12.run(rows4)))

    avg = fig4.averages(rows4)
    buf.write(
        "\n## Headline summary\n\n"
        f"- full MRD average normalized JCT: **{avg['full']:.2f}** "
        "(paper: 0.53)\n"
        f"- eviction-only: **{avg['evict_only']:.2f}** (paper: 0.62); "
        f"prefetch-only: **{avg['prefetch_only']:.2f}** (paper: 0.67)\n"
        f"- average hit ratio: LRU **{avg['lru_hit'] * 100:.0f}%** → "
        f"MRD **{avg['mrd_hit'] * 100:.0f}%**\n"
    )

    text = buf.getvalue()
    if out is not None:
        Path(out).write_text(text)
    return text
