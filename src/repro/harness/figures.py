"""Regenerators for every figure in the paper's evaluation.

Figures are data series (no plotting dependency is installed offline);
each ``figureN()`` returns a :class:`FigureResult` whose ``series`` map a
curve label to ``(x, y)`` points, plus an ASCII sparkline renderer so the
shape is visible in a terminal.  One pytest-benchmark target per figure
lives under ``benchmarks/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.core.experiment import ExperimentConfig
from repro.core.sweep import SweepEngine, default_engine, paper_vectorise
from repro.machines.catalog import PAPER_HPC_MACHINES, get_machine
from repro.stream.stream import modelled_bandwidth

from .report import render_csv

__all__ = [
    "FigureResult",
    "figure_grid",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "FIGURE_BUILDERS",
    "build_figure",
    "THREAD_SWEEP",
]

#: The paper's x-axis: powers of two up to each chip's core count, plus
#: the Skylake's odd 26.
THREAD_SWEEP = (1, 2, 4, 8, 16, 26, 32, 64)

_SPARK = "._-=+*#%@"


def _sweep_for(machine_name: str) -> list[int]:
    n = get_machine(machine_name).n_cores
    return [t for t in THREAD_SWEEP if t <= n]


@dataclass
class FigureResult:
    """One regenerated figure: named (x, y) series."""

    number: int
    title: str
    x_label: str
    y_label: str
    series: dict[str, list[tuple[int, float]]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [f"== Figure {self.number}: {self.title} =="]
        lines.append(f"   ({self.x_label} vs {self.y_label})")
        all_y = [y for pts in self.series.values() for _, y in pts]
        lo, hi = min(all_y), max(all_y)
        span = hi - lo or 1.0
        for label, pts in self.series.items():
            spark = "".join(
                _SPARK[int((y - lo) / span * (len(_SPARK) - 1))] for _, y in pts
            )
            xs = ",".join(str(x) for x, _ in pts)
            last = pts[-1]
            lines.append(
                f"  {label:<18} {spark:<10} x=[{xs}] "
                f"peak@{last[0]}: {last[1]:,.1f}"
            )
        lines.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        headers = ["series", "x", "y"]
        rows = [
            [label, x, y]
            for label, pts in self.series.items()
            for x, y in pts
        ]
        return render_csv(headers, rows)


def _scaling_grid(kernel: str) -> list[ExperimentConfig]:
    """The flat thread-scaling grid figures 2-6 prefetch for ``kernel``."""
    vectorise = paper_vectorise(kernel)  # the paper's Section 6 exception
    return [
        ExperimentConfig(
            machine=machine,
            kernel=kernel,
            npb_class="C",
            n_threads=n,
            vectorise=vectorise,
        )
        for machine in PAPER_HPC_MACHINES
        for n in _sweep_for(machine)
    ]


def figure_grid(number: int) -> list[ExperimentConfig]:
    """The experiment grid ``figureN()`` prefetches (empty when none).

    Figure 1 is pure STREAM bandwidth (no sweep), so its grid is empty.
    Like :func:`repro.harness.tables.table_grid`, this lets multi-artifact
    callers flatten everything into one planner megagrid up front.
    """
    if number not in FIGURE_BUILDERS:
        raise KeyError(f"the paper has figures 1-6; no figure {number}")
    kernel = _FIGURE_KERNELS.get(number)
    return [] if kernel is None else _scaling_grid(kernel)


def figure1(engine: SweepEngine | None = None) -> FigureResult:
    """STREAM copy bandwidth vs cores: SG2044 scales, SG2042 plateaus.

    ``engine`` is accepted for signature uniformity (pure STREAM model,
    no sweep).
    """
    fig = FigureResult(
        number=1,
        title="STREAM copy memory bandwidth vs cores",
        x_label="cores",
        y_label="GB/s",
    )
    for machine in ("sg2042", "sg2044"):
        label = get_machine(machine).label
        fig.series[label] = [
            (n, modelled_bandwidth(get_machine(machine), n, "copy"))
            for n in _sweep_for(machine)
        ]
    fig.notes.append(
        "the SG2042 plateaus just beyond 8 cores; at 64 the SG2044 delivers >3x"
    )
    return fig


def _kernel_scaling_figure(
    number: int, kernel: str, caption: str, engine: SweepEngine | None = None
) -> FigureResult:
    fig = FigureResult(
        number=number,
        title=caption,
        x_label="threads",
        y_label="Mop/s",
    )
    engine = engine if engine is not None else default_engine()
    # One flat batch: the planner evaluates every machine's sweep in a
    # single vectorised model pass.
    results = iter(engine.run_many(_scaling_grid(kernel)))
    for machine in PAPER_HPC_MACHINES:
        label = get_machine(machine).label
        fig.series[label] = [
            (n, next(results).mean_mops) for n in _sweep_for(machine)
        ]
    return fig


def figure2(engine: SweepEngine | None = None) -> FigureResult:
    """IS scaling across architectures (class C)."""
    fig = _kernel_scaling_figure(
        2, "is", "IS benchmark performance (OpenMP)", engine=engine
    )
    fig.notes.append("SG2042 plateaus at 16 threads; SG2044 follows the EPYC's curve")
    return fig


def figure3(engine: SweepEngine | None = None) -> FigureResult:
    """MG scaling across architectures (class C)."""
    fig = _kernel_scaling_figure(
        3, "mg", "MG benchmark performance (OpenMP)", engine=engine
    )
    fig.notes.append("whole-chip SG2044 is comparable to 26-core Skylake / 32-core TX2")
    return fig


def figure4(engine: SweepEngine | None = None) -> FigureResult:
    """EP scaling across architectures (class C)."""
    fig = _kernel_scaling_figure(
        4, "ep", "EP benchmark performance (OpenMP)", engine=engine
    )
    fig.notes.append("SG2044 tracks the Skylake core-for-core")
    return fig


def figure5(engine: SweepEngine | None = None) -> FigureResult:
    """CG scaling across architectures (class C)."""
    fig = _kernel_scaling_figure(
        5, "cg", "CG benchmark performance (OpenMP)", engine=engine
    )
    fig.notes.append("TX2 wins core-for-core; 64-core SG2044 beats 32-core TX2")
    return fig


def figure6(engine: SweepEngine | None = None) -> FigureResult:
    """FT scaling across architectures (class C)."""
    fig = _kernel_scaling_figure(
        6, "ft", "FT benchmark performance (OpenMP)", engine=engine
    )
    fig.notes.append("SG2044 parallels the SG2042's trajectory, offset upward")
    return fig


FIGURE_BUILDERS = {
    1: figure1,
    2: figure2,
    3: figure3,
    4: figure4,
    5: figure5,
    6: figure6,
}

_FIGURE_KERNELS = {2: "is", 3: "mg", 4: "ep", 5: "cg", 6: "ft"}


def build_figure(number: int, engine: SweepEngine | None = None) -> FigureResult:
    """Regenerate one paper figure by number (1-6).

    ``engine`` routes the builder's sweep through a specific
    :class:`SweepEngine` (the service passes its job manager's engine);
    ``None`` keeps the process-wide default.
    """
    try:
        builder = FIGURE_BUILDERS[number]
    except KeyError:
        raise KeyError(f"the paper has figures 1-6; no figure {number}") from None
    with obs.span(f"figure{number}"):
        result = builder(engine=engine)
    obs.incr("harness.figures_built")
    return result
