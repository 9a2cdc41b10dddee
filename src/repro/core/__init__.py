"""The reproduction's core: workload signatures, the analytic performance
model, calibration anchors, and the experiment-runner protocol."""

from .calibration import ANCHORS, Anchor, anchor_for, calibration_factors
from .experiment import DEFAULT_RUNS, ExperimentConfig, ExperimentRunner
from .metrics import (
    crossover_threads,
    parallel_efficiency,
    percent_of,
    speedup_curve,
    times_faster,
)
from .perfmodel import DNRError, PerformanceModel, Prediction
from .results import ExperimentResult, RunSample
from .signature import CommPattern, KernelSignature
from .sweep import (
    SweepEngine,
    clear_caches,
    default_engine,
    expand_grid,
    paper_vectorise,
)

__all__ = [
    "ANCHORS",
    "Anchor",
    "CommPattern",
    "DEFAULT_RUNS",
    "DNRError",
    "ExperimentConfig",
    "ExperimentResult",
    "ExperimentRunner",
    "KernelSignature",
    "PerformanceModel",
    "Prediction",
    "RunSample",
    "SweepEngine",
    "anchor_for",
    "calibration_factors",
    "clear_caches",
    "crossover_threads",
    "default_engine",
    "expand_grid",
    "paper_vectorise",
    "parallel_efficiency",
    "percent_of",
    "speedup_curve",
    "times_faster",
]
