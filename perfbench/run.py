"""The repository's benchmark: four seeded workloads driven from outside.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Workloads (see ``perfbench/NOTES.md`` for why each was chosen):

``paper_cli``       ``repro export`` / ``export --store`` / ``table N`` /
                    ``figure N`` commands in fresh interpreters
``design_sweep``    cold sweeps of the 12,000-config HPC design grid
``service_mix``     2 keep-alive clients, closed loop, against ``repro serve``
``npb_functional``  passes of the functional NPB kernels

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace
1`` runs a fixed set of operations untraced, then the same set traced,
prints the per-layer ledger and reports the per-layer metrics.  Either
way the outputs are checked, every metric is printed by name with its
unit, and the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The run
writes only under ``.perfbench/`` in the checkout; the ledger of a traced
run is kept in ``.perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import design_sweep
import ledger
import npb_functional
import paper_cli
import procs
import service_mix

E2E_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "fidelity_mean_err": "%",
    "fidelity_max_err": "%",
}
SETUPS = 5


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool

    @staticmethod
    def clock() -> float:
        return time.perf_counter()


def in_process(ctx: Context, workload) -> dict:
    """A workload that runs inside :mod:`worker`; set-up is the worker's
    start until it is ready, taken as the median of several starts.  Work
    is counted in the workload's own unit (configs, NPB Mop)."""
    name = workload.__name__
    setups = []
    for _ in range(SETUPS - 1):
        worker = procs.Worker(ctx.root, name, ctx.work)
        setups.append(worker.setup_s)
        worker.close()
    worker = procs.Worker(ctx.root, name, ctx.work)
    setups.append(worker.setup_s)
    trace_out = ctx.work / "trace.json" if ctx.trace else None
    out, maxrss = worker.run(
        {
            "seed": ctx.seed,
            "seconds": ctx.seconds,
            "trace_out": None if trace_out is None else str(trace_out),
        }
    )
    walls = [end - start for _op, start, end in out["ops"]]
    work = out["work_per_op"]
    result = {
        "attempted": out["attempted"],
        "failed": out["failed"],
        "detail": workload.detail(walls, work),
    }
    if ctx.trace:
        result["ops"] = out["traced_ops"]
        result["traces"] = ledger.load([trace_out])
        result["untraced_wall"] = sum(walls)
    else:
        result["e2e"] = {
            "setup_s": statistics.median(setups),
            "op_p50_s": statistics.median(walls),
            "work_per_s": work * len(walls) / sum(walls),
            "peak_rss_mb": maxrss / 1024,
        }
    return result


WORKLOADS = {
    "paper_cli": paper_cli.run,
    "design_sweep": lambda ctx: in_process(ctx, design_sweep),
    "service_mix": service_mix.run,
    "npb_functional": lambda ctx: in_process(ctx, npb_functional),
}


def fidelity(ctx: Context) -> dict[str, float]:
    done = procs.run(
        [sys.executable, str(procs.HERE / "fidelity.py")],
        procs.child_env(ctx.root),
        ctx.root,
        ctx.work,
    )
    if done.code != 0:
        raise RuntimeError(f"scorecard failed: {done.stderr.decode(errors='replace')}")
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print("run.py: no src/repro here; run it from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    base = root / ".perfbench"
    work = base / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    ctx = Context(root, work, args.seed, args.seconds, bool(args.trace))
    try:
        result = WORKLOADS[args.workload](ctx)
        if not ctx.trace:
            result["e2e"].update(fidelity(ctx))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if ctx.trace:
        values, rows = ledger.metrics(
            result["ops"], result["traces"], result["untraced_wall"], result["detail"]
        )
        units = ledger.per_layer_units()
        for line in ledger.render(args.workload, rows, values["trace.wall_s"]):
            print(line)
        out = base / "out"
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{args.workload}-seed{args.seed}-ledger.json").write_text(
            json.dumps({"rows": rows, "metrics": values}, indent=1)
        )
    else:
        values, units = result["e2e"], E2E_UNITS
        for name, value in result["detail"].items():
            print(f"detail {name} = {value:.6g} {ledger.DETAIL[name]}")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"attempted {result['attempted']}, failed {result['failed']}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": values[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
