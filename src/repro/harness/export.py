"""Bulk export: write every regenerated table and figure to a directory.

``python -m repro export out/`` produces one CSV per table and figure
(ready for pandas/matplotlib/gnuplot) plus an ``INDEX.md`` mapping files
to the paper's artefacts.

Every file goes through :func:`repro.faults.write_text_atomic`: a crash
(or injected I/O fault) mid-export leaves each artifact either absent,
fully previous or fully new -- never a truncated CSV that would later
parse as a short-but-valid table.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.sweep import default_engine
from repro.faults import write_text_atomic

from .figures import FIGURE_BUILDERS, figure_grid
from .tables import TABLE_BUILDERS, table_grid

__all__ = ["export_all"]


def export_all(
    directory: str | Path,
    tables: tuple[int, ...] | None = None,
    figures: tuple[int, ...] | None = None,
) -> list[Path]:
    """Regenerate and write the selected artefacts; returns written paths.

    Defaults to everything (Tables 1-8, Figures 1-6).  Existing files are
    overwritten -- outputs are deterministic, so that is idempotent.
    """
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    table_numbers = tables if tables is not None else tuple(sorted(TABLE_BUILDERS))
    figure_numbers = figures if figures is not None else tuple(sorted(FIGURE_BUILDERS))

    # Flatten the whole export into one megagrid up front: the union of
    # every selected artifact's prefetch grid goes through a single
    # ``run_many``, so the planner evaluates it in one vectorised pass
    # and the per-artifact prefetches inside each builder below become
    # pure cache hits.
    prefetch = [c for n in table_numbers for c in table_grid(n)]
    prefetch += [c for n in figure_numbers for c in figure_grid(n)]
    if prefetch:
        default_engine().run_many(prefetch, on_dnr="none")

    written: list[Path] = []
    index_lines = [
        "# Regenerated artefacts",
        "",
        "| file | paper artefact |",
        "|---|---|",
    ]
    for n in table_numbers:
        if n not in TABLE_BUILDERS:
            raise KeyError(f"no table {n} (paper has 1-8)")
        result = TABLE_BUILDERS[n]()
        path = out / f"table{n}.csv"
        write_text_atomic(path, result.to_csv())
        written.append(path)
        index_lines.append(f"| `{path.name}` | Table {n}: {result.title} |")
    for n in figure_numbers:
        if n not in FIGURE_BUILDERS:
            raise KeyError(f"no figure {n} (paper has 1-6)")
        fig = FIGURE_BUILDERS[n]()
        path = out / f"figure{n}.csv"
        write_text_atomic(path, fig.to_csv())
        written.append(path)
        index_lines.append(f"| `{path.name}` | Figure {n}: {fig.title} |")

    index = out / "INDEX.md"
    write_text_atomic(index, "\n".join(index_lines) + "\n")
    written.append(index)
    return written
