"""paper_cli: what researchers run, in fresh interpreters one at a time.

Each cycle of commands is ``repro export DIR`` with no store, ``repro
export DIR --store S`` against the store set-up filled, then ``repro
table N --csv`` / ``repro figure N --csv`` over all 8 tables and 6
figures in an order the seed shuffles.  A run times whole cycles.  Every
CSV must be byte-identical to the one set-up's export wrote.
"""

from __future__ import annotations

import random
import shutil
import statistics

import ledger
import procs

ARTIFACTS = [("table", n) for n in range(1, 9)] + [("figure", n) for n in range(1, 7)]
SETUPS = 3
CYCLE = 2 + len(ARTIFACTS)


def _cycles(seed: int):
    rng = random.Random(seed)
    while True:
        artifacts = list(ARTIFACTS)
        rng.shuffle(artifacts)
        yield ("export", None)
        yield ("export_store", None)
        yield from artifacts


def run(ctx) -> dict:
    env = procs.child_env(ctx.root)
    ops_dir = ctx.work / "ops"
    ops_dir.mkdir()

    # Set-up: fill a fresh warm store with an export, several times.
    setups = []
    for i in range(SETUPS):
        store, reference = ctx.work / f"store{i}", ctx.work / f"reference{i}"
        done = procs.run(
            procs.repro_argv("export", str(reference), "--store", str(store)),
            env, ctx.root, ctx.work,
        )
        if done.code != 0:
            raise RuntimeError(f"set-up export failed: {done.stderr.decode(errors='replace')}")
        setups.append(done.wall_s)
    expected = {p.name: p.read_bytes() for p in reference.iterdir()}

    def command(kind, number, trace_out=None, op=None):
        """Run one command; ``(completed process, output correct)``."""
        out_dir = ops_dir / "export"
        if kind == "export":
            args = ("export", str(out_dir))
        elif kind == "export_store":
            args = ("export", str(out_dir), "--store", str(store))
        else:
            args = (kind, str(number), "--csv")
        run_env = env if op is None else dict(env, PERFBENCH_OP=op)
        done = procs.run(procs.repro_argv(*args, trace_out=trace_out), run_env, ctx.root, ops_dir)
        if kind in ("export", "export_store"):
            got = {p.name: p.read_bytes() for p in out_dir.iterdir()} if out_dir.is_dir() else {}
            shutil.rmtree(out_dir, ignore_errors=True)
            return done, done.code == 0 and got == expected
        return done, done.code == 0 and done.stdout == expected[f"{kind}{number}.csv"]

    walls: dict[str, list[float]] = {"export": [], "export_store": [], "artifact": []}
    rss, attempted, failed = [], 0, 0
    cycle = _cycles(ctx.seed)
    plan = []
    deadline = ctx.clock() + ctx.seconds
    # Whole cycles only, so every run times the same mix of commands: one
    # when tracing, otherwise as many as end after the deadline.
    while len(plan) % CYCLE or not plan or (not ctx.trace and ctx.clock() < deadline):
        kind, number = next(cycle)
        plan.append((kind, number))
        done, correct = command(kind, number)
        walls[kind if kind.startswith("export") else "artifact"].append(done.wall_s)
        rss.append(done.maxrss_kib)
        attempted += 1
        failed += not correct

    all_walls = [w for ws in walls.values() for w in ws]
    result = {
        "attempted": attempted,
        "failed": failed,
        "detail": {f"{kind}_s": statistics.median(ws) for kind, ws in walls.items()},
    }
    if not ctx.trace:
        result["e2e"] = {
            "setup_s": statistics.median(setups),
            "op_p50_s": statistics.median(all_walls),
            "work_per_s": len(all_walls) / sum(all_walls),
            "peak_rss_mb": max(rss) / 1024,
        }
        return result

    # Traced pass: the same commands through the traced launcher.
    ops, traces = [], []
    for i, (kind, number) in enumerate(plan):
        op, trace_out = f"cmd{i}", ctx.work / f"trace{i}.json"
        done, correct = command(kind, number, trace_out=trace_out, op=op)
        ops.append((op, done.start, done.start + done.wall_s))
        traces.append(trace_out)
        result["attempted"] += 1
        result["failed"] += not correct
    result["ops"] = ops
    result["traces"] = ledger.load(traces)
    result["untraced_wall"] = sum(all_walls)
    return result
