"""npb_functional: passes of the functional NPB kernels, in process.

All 8 kernels at class S plus IS, CG and FT at class W through
``repro.npb.suite.run_benchmark``, in an order the seed shuffles.  The CG
matrix cache is cleared before each pass, as a fresh ``repro npb``
process would start.  Runs inside :mod:`worker`.
"""

from __future__ import annotations

import random
import statistics
import time

from passes import run_ops

RUNS = [(k, "S") for k in ("is", "mg", "ep", "cg", "ft", "bt", "lu", "sp")] + [
    ("is", "W"),
    ("cg", "W"),
    ("ft", "W"),
]
TRACED_PASSES = 1


def prepare():
    import repro.npb.cg
    import repro.npb.suite  # noqa: F401


def run(_prepared, seed: int, seconds: float, trace_out: str | None) -> dict:
    from repro.npb import cg, suite

    order = list(RUNS)
    random.Random(seed).shuffle(order)

    def one_pass():
        cg.clear_matrix_cache()
        start = time.perf_counter()
        results = [suite.run_benchmark(kernel, npb_class) for kernel, npb_class in order]
        return start, time.perf_counter(), results

    out, passes = run_ops(one_pass, seconds, trace_out, TRACED_PASSES)
    out["work_per_op"] = sum(r.total_mops for r in passes[0])
    out["attempted"] = sum(len(results) for results in passes)
    out["failed"] = sum(not r.verified for results in passes for r in results)
    return out


def detail(walls: list[float], work_per_op: float) -> dict[str, float]:
    return {"npb_suite_s": statistics.median(walls)}
