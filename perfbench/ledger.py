"""Per-layer ledger of a traced pass, and the per-layer metrics.

An *op* is one timed benchmark operation ``(op_id, start, end)`` as the
benchmark saw it: a CLI command, a cold sweep, one HTTP request, one
pass of the NPB kernel list.  Each span carries the op it belongs to.

Within an op, every instant is charged to the deepest span active at
that instant (ties go to the one that started last), so a layer's self
time is its span minus the part its child spans cover -- including
spans a server process recorded while serving the client's call.  Time
no span covers is the op's residual (interpreter start, HTTP transport,
benchmark-side glue).  Self times plus residual add up to the op walls.
"""

from __future__ import annotations

import heapq
import json
from collections import defaultdict
from pathlib import Path

# Span names whose total time is a per-layer metric ``<name>_s``.  Totals
# count outermost calls only, so a layer calling itself is not counted
# twice.  ``harness.build_s`` is the exception: it is the builders' self
# time, so the sweep and cachesim work they call is not counted twice.
TIMED = (
    "cli.import",
    "harness.prefetch",
    "harness.write",
    "cachesim.table1",
    "cachesim.run_trace",
    "sweep.run_many",
    "plan.plan_groups",
    "perfmodel.predict_batch",
    "store.get_many",
    "store.put_many",
    "api.submit",
    "api.wait",
    "api.artifact",
    "api.health",
    "requests.parse",
    "requests.job_id",
    "requests.execute",
    "jobs.queue_wait",
    "npb.randlc",
)
COUNTED = (
    "cachesim.accesses",
    "sweep.configs",
    "plan.calls",
    "plan.refused",
    "perfmodel.predict_batch_calls",
    "store.hits",
    "store.misses",
    "jobs.failed",
    "npb.randlc_values",
)
NPB_RUNS = tuple(f"{k}_S" for k in ("is", "mg", "ep", "cg", "ft", "bt", "lu", "sp")) + (
    "is_W",
    "cg_W",
    "ft_W",
)
# Workload-level figures the traced run reports from its untraced pass,
# under the names the workloads' end-to-end definitions use.
DETAIL = {
    "export_s": "s",
    "export_store_s": "s",
    "artifact_s": "s",
    "sweep_configs_per_s": "1/s",
    "request_p50_s": "s",
    "request_p90_s": "s",
    "requests_per_s": "1/s",
    "npb_suite_s": "s",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit (``BENCHMARK.json`` order)."""
    units = {"cli.import_s": "s", "cli.modules_loaded": "count"}
    units.update({f"{name}_s": "s" for name in TIMED if name != "cli.import"})
    units["harness.build_s"] = "s"
    units.update({name: "count" for name in COUNTED})
    units.update(
        {"sweep.hit_ratio": "ratio", "store.hit_ratio": "ratio", "jobs.dedup_ratio": "ratio"}
    )
    units.update({f"npb.{run}_s": "s" for run in NPB_RUNS})
    units.update(
        {
            "trace.wall_s": "s",
            "trace.untraced_wall_s": "s",
            "trace.overhead_s": "s",
            "trace.residual_s": "s",
        }
    )
    units.update(DETAIL)
    return units


def load(paths) -> list[dict]:
    """Span files written by :meth:`tracer.Tracer.write`."""
    return [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]


def attribute(ops, traces) -> tuple[dict[str, float], float, float]:
    """``(self seconds per span name, residual seconds, wall seconds)``."""
    by_op: dict = defaultdict(list)
    for trace in traces:
        for _id, name, start, end, _parent, op, depth in trace["spans"]:
            by_op[op].append((start, end, depth, name))
    self_s: dict[str, float] = defaultdict(float)
    residual = wall = 0.0
    for op, t0, t1 in ops:
        wall += t1 - t0
        items = sorted(
            (max(s, t0), min(e, t1), d, n) for s, e, d, n in by_op.get(op, ()) if e > t0 and s < t1
        )
        bounds = sorted({t0, t1, *(i[0] for i in items), *(i[1] for i in items)})
        heap: list = []
        nxt = 0
        for a, b in zip(bounds, bounds[1:]):
            while nxt < len(items) and items[nxt][0] <= a:
                start, end, depth, name = items[nxt]
                heapq.heappush(heap, (-depth, -start, end, name))
                nxt += 1
            while heap and heap[0][2] <= a:
                heapq.heappop(heap)
            if heap:
                self_s[heap[0][3]] += b - a
            else:
                residual += b - a
    return dict(self_s), residual, wall


def _outermost_totals(traces, ops) -> dict[str, float]:
    op_ids = {op for op, _t0, _t1 in ops}
    totals: dict[str, float] = defaultdict(float)
    for trace in traces:
        names = {span[0]: (span[1], span[4]) for span in trace["spans"]}
        for span_id, name, start, end, parent, op, _depth in trace["spans"]:
            if op not in op_ids:
                continue
            while parent is not None and names[parent][0] != name:
                parent = names[parent][1]
            if parent is None:
                totals[name] += end - start
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(ops, traces, untraced_wall: float, detail: dict[str, float]) -> tuple[dict, list]:
    """Every per-layer metric, plus the ledger rows (name, seconds)."""
    self_s, residual, wall = attribute(ops, traces)
    totals = _outermost_totals(traces, ops)
    counters: dict[str, float] = defaultdict(int)
    for trace in traces:
        for name, n in trace["counters"].items():
            counters[name] += n
    loaded = [t["info"]["modules_loaded"] for t in traces if t["info"].get("command") == "table"]

    values: dict[str, float] = {}
    for name in per_layer_units():
        values[name] = 0.0
    for name in TIMED:
        values[f"{name}_s"] = totals.get(name, 0.0)
    values["harness.build_s"] = self_s.get("harness.build", 0.0)
    for name in COUNTED:
        values[name] = counters.get(name, 0)
    values["cli.modules_loaded"] = max(loaded, default=0)
    values["sweep.hit_ratio"] = _ratio(
        counters["sweep.hits"], counters["sweep.hits"] + counters["sweep.misses"]
    )
    values["store.hit_ratio"] = _ratio(
        counters["store.hits"], counters["store.hits"] + counters["store.misses"]
    )
    values["jobs.dedup_ratio"] = _ratio(counters["jobs.deduplicated"], counters["jobs.submitted"])
    for run in NPB_RUNS:
        values[f"npb.{run}_s"] = totals.get(f"npb.{run}", 0.0)
    values["trace.wall_s"] = wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = wall - untraced_wall
    values["trace.residual_s"] = residual
    values.update(detail)

    rows = sorted(self_s.items(), key=lambda kv: -kv[1])
    rows.append(("residual", residual))
    return values, rows


def render(workload: str, rows, wall: float) -> list[str]:
    """The ledger as text: one row per layer, the residual, the total."""
    lines = [f"ledger {workload}: self time per layer over {wall:.4f} s traced wall"]
    for name, seconds in rows:
        lines.append(f"  {name:<28} {seconds:10.4f} s  {100 * seconds / wall if wall else 0:6.2f}%")
    lines.append(f"  {'total':<28} {sum(s for _n, s in rows):10.4f} s")
    return lines

