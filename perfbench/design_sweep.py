"""design_sweep: cold in-process sweeps of the 12,000-config HPC design grid.

5 ``PAPER_HPC_MACHINES`` x 8 kernels x classes A/B/C x every thread count
from 1 to ``n_cores`` x vectorisation on and off, each sweep through a
fresh ``SweepEngine(runner=ExperimentRunner(seed=...))`` after
``clear_caches()``.  The seed picks the runner seed and the grid order.
Runs inside :mod:`worker`.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time

from passes import run_ops

KERNELS = ("is", "mg", "ep", "cg", "ft", "bt", "lu", "sp")
TRACED_SWEEPS = 3


def prepare():
    from repro.core.sweep import SweepEngine, expand_grid
    from repro.machines.catalog import PAPER_HPC_MACHINES, get_machine

    grid = []
    for name in PAPER_HPC_MACHINES:
        grid += expand_grid(
            name,
            KERNELS,
            classes=("A", "B", "C"),
            thread_counts=range(1, get_machine(name).n_cores + 1),
            vectorise=(True, False),
        )
    SweepEngine()
    return grid


def _digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(b"DNR" if r is None else repr((r.mean_time_s, r.mean_mops)).encode())
    return h.hexdigest()


def run(grid, seed: int, seconds: float, trace_out: str | None) -> dict:
    from repro.core import sweep
    from repro.core.experiment import ExperimentRunner

    rng = random.Random(seed)
    grid = list(grid)
    rng.shuffle(grid)
    runner_seed = rng.randrange(2**31)

    def cold_sweep():
        sweep.clear_caches()
        start = time.perf_counter()
        engine = sweep.SweepEngine(runner=ExperimentRunner(seed=runner_seed))
        results = engine.run_many(grid, on_dnr="none")
        return start, time.perf_counter(), _digest(results)

    out, digests = run_ops(cold_sweep, seconds, trace_out, TRACED_SWEEPS)
    out["work_per_op"] = len(grid)
    out["attempted"] = len(digests)
    out["failed"] = sum(d != digests[0] for d in digests)
    return out


def detail(walls: list[float], work_per_op: float) -> dict[str, float]:
    return {"sweep_configs_per_s": statistics.median(work_per_op / w for w in walls)}
