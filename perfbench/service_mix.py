"""service_mix: a closed loop of 2 keep-alive clients against ``repro serve``.

Each request is POST ``/api/v1/jobs``, GET ``/api/v1/jobs/<id>?wait=``,
GET ``/api/v1/jobs/<id>/artifact``, timed from the POST to the last
artifact byte.  The seeded mix is ~60% small overlapping sweeps, ~25%
table/figure requests, ~7% whatif requests and ~8% exact repeats of an
earlier request.  Sweeps draw only thread counts that every machine in
the request has: the service accepts an over-core thread count with a
202 and the job then ends FAILED, a defect this traffic must not hide
behind failed operations.
"""

from __future__ import annotations

import http.client
import json
import random
import statistics
import threading
from contextlib import nullcontext

import ledger
import procs
from tracer import OP_HEADER, Tracer

CLIENTS = 2
SETUPS = 5
MIN_REQUESTS = 100
TRACED_PER_CLIENT = 60
HEALTH_PROBES = 5
KERNELS = ("is", "mg", "ep", "cg", "ft", "bt", "lu", "sp")
THREADS = (1, 2, 4, 8, 16, 32, 64)
PREFIX = "/api/v1/jobs"


def request_mix(seed: int, n: int, cores: dict[str, int]) -> list[dict]:
    """``n`` request payloads; ``cores`` maps machine name to core count."""
    rng = random.Random(seed)
    machines = sorted(cores)
    out: list[dict] = []
    for _ in range(n):
        draw = rng.random()
        if draw < 0.08 and out:
            out.append(rng.choice(out))
        elif draw < 0.33:
            kind = rng.choice(("table", "figure"))
            out.append({"kind": kind, "number": rng.randint(1, 8 if kind == "table" else 6)})
        elif draw < 0.40:
            out.append(
                {"kind": "whatif", "kernel": rng.choice(KERNELS), "threads": rng.choice((16, 32, 64))}
            )
        else:
            chosen = rng.sample(machines, rng.randint(1, 2))
            allowed = [t for t in THREADS if t <= min(cores[m] for m in chosen)]
            out.append(
                {
                    "kind": "sweep",
                    "machines": chosen,
                    "kernels": rng.sample(KERNELS, rng.randint(1, 3)),
                    "classes": [rng.choice("ABC")],
                    "threads": sorted(rng.sample(allowed, min(len(allowed), rng.randint(1, 3)))),
                }
            )
    return out


class Client:
    """One keep-alive HTTP/1.1 connection driven by one thread."""

    def __init__(self, port: int, clock, tracer: Tracer | None):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        self.clock = clock
        self.tracer = tracer

    def _call(self, name: str, method: str, path: str, op: str, body: bytes | None = None):
        headers = {OP_HEADER: op}
        if body is not None:
            headers["Content-Type"] = "application/json"
        with self.tracer.span(name) if self.tracer else nullcontext():
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            return response.status, response.read()

    def request(self, op: str, payload: dict) -> dict:
        """One request; its timing, its artifact and what went wrong."""
        if self.tracer:
            self.tracer.set_thread_op(op)
        start = self.clock()
        record = {"op": op, "start": start, "payload": payload, "error": None}
        status, body = self._call("api.submit", "POST", PREFIX, op, json.dumps(payload).encode())
        if status != 202:
            record.update(end=self.clock(), error=f"POST {status}: {body[:200]!r}")
            return record
        accepted = json.loads(body)
        job_id = accepted["job_id"]
        record["configs"] = accepted["estimate"]["configs"]
        while True:
            status, body = self._call("api.wait", "GET", f"{PREFIX}/{job_id}?wait=60", op)
            state = json.loads(body).get("state") if status == 200 else None
            if state not in ("queued", "running"):
                break
        if state != "done":
            record.update(end=self.clock(), error=f"job {job_id} ended {state} ({status})")
            return record
        status, body = self._call("api.artifact", "GET", f"{PREFIX}/{job_id}/artifact", op)
        record["end"] = self.clock()
        if status != 200:
            record["error"] = f"artifact {status}"
        record["artifact"] = body
        return record

    def health(self, op: str) -> dict:
        if self.tracer:
            self.tracer.set_thread_op(op)
        start = self.clock()
        status, _body = self._call("api.health", "GET", "/health", op)
        return {"op": op, "start": start, "end": self.clock(), "error": None if status == 200 else status}

    def close(self) -> None:
        self.conn.close()


def _drive(port, clock, sequences, deadline, tracer=None, probes=0) -> list[dict]:
    """Run each client over its sequence, closed loop; all records."""
    records: list[list[dict]] = [[] for _ in sequences]
    errors: list[BaseException] = []

    def client_loop(k: int) -> None:
        client = Client(port, clock, tracer)
        try:
            for i, payload in enumerate(sequences[k]):
                if deadline is not None and clock() >= deadline and (
                    sum(map(len, records)) >= MIN_REQUESTS
                ):
                    break
                records[k].append(client.request(f"c{k}r{i}", payload))
            for i in range(probes):
                records[k].append(client.health(f"c{k}h{i}"))
        except BaseException as exc:  # surfaced by the caller after join
            errors.append(exc)
        finally:
            client.close()

    threads = [threading.Thread(target=client_loop, args=(k,)) for k in range(len(sequences))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return [r for rs in records for r in rs]


def _reference_csvs(ctx) -> dict:
    """The CSVs ``repro export`` writes, as the artifacts must match them."""
    out = ctx.work / "reference"
    done = procs.run(procs.repro_argv("export", str(out)), procs.child_env(ctx.root), ctx.root, ctx.work)
    if done.code != 0:
        raise RuntimeError("reference export failed")
    return {p.stem: p.read_bytes() for p in out.glob("*.csv")}


def _verify(records: list[dict], reference: dict) -> int:
    """Count failed requests: errors, and artifacts that are wrong."""
    failed = 0
    first: dict[str, bytes] = {}
    for record in records:
        if "payload" not in record:
            failed += record["error"] is not None
            continue
        payload = record["payload"]
        artifact = record.get("artifact")
        ok = record["error"] is None and artifact is not None
        if ok:
            key = json.dumps(payload, sort_keys=True)
            ok = first.setdefault(key, artifact) == artifact
            kind = payload["kind"]
            lines = artifact.decode().splitlines()
            if kind in ("table", "figure"):
                ok = ok and artifact == reference[f"{kind}{payload['number']}"]
            elif kind == "sweep":
                ok = ok and lines[0].startswith("machine,kernel,") and len(lines) == record["configs"] + 1
            else:
                ok = ok and lines[0] == "section,step,mops,factor" and len(lines) > 1
        failed += not ok
    return failed


def run(ctx) -> dict:
    from repro.machines.catalog import PAPER_HPC_MACHINES, PAPER_RISCV_BOARDS, get_machine

    cores = {m: get_machine(m).n_cores for m in {*PAPER_HPC_MACHINES, *PAPER_RISCV_BOARDS}}
    mix = request_mix(ctx.seed, 4000, cores)
    sequences = [mix[k::CLIENTS] for k in range(CLIENTS)]

    def start_server(name: str, trace_out=None) -> procs.Server:
        store = ctx.work / name
        store.mkdir()
        return procs.Server(ctx.root, ctx.work, store, trace_out=trace_out)

    setups = []
    for i in range(SETUPS - 1):
        server = start_server(f"setup{i}")
        setups.append(server.setup_s)
        server.stop()
    server = start_server("store")
    setups.append(server.setup_s)
    try:
        if ctx.trace:
            fixed = [seq[:TRACED_PER_CLIENT] for seq in sequences]
            records = _drive(server.port, ctx.clock, fixed, None, probes=HEALTH_PROBES)
        else:
            records = _drive(server.port, ctx.clock, sequences, ctx.clock() + ctx.seconds)
    finally:
        _code, maxrss = server.stop()

    requests = [r for r in records if "payload" in r]
    latencies = [r["end"] - r["start"] for r in requests]
    span = max(r["end"] for r in requests) - min(r["start"] for r in requests)
    reference = _reference_csvs(ctx)
    result = {
        "attempted": len(records),
        "failed": _verify(records, reference),
        "detail": {
            "request_p50_s": statistics.median(latencies),
            "request_p90_s": statistics.quantiles(latencies, n=10, method="inclusive")[8],
            "requests_per_s": len(requests) / span,
        },
    }
    if not ctx.trace:
        result["e2e"] = {
            "setup_s": statistics.median(setups),
            "op_p50_s": statistics.median(latencies),
            "work_per_s": len(requests) / span,
            "peak_rss_mb": maxrss / 1024,
        }
        return result

    # Traced pass: the same requests against a traced server.
    tracer = Tracer()
    trace_out = ctx.work / "server-trace.json"
    server = start_server("traced-store", trace_out=trace_out)
    try:
        traced = _drive(server.port, ctx.clock, fixed, None, tracer=tracer, probes=HEALTH_PROBES)
    finally:
        server.stop()
    result["attempted"] += len(traced)
    result["failed"] += _verify(traced, reference)
    result["ops"] = [(r["op"], r["start"], r["end"]) for r in traced]
    result["traces"] = [tracer.payload(), *ledger.load([trace_out])]
    result["untraced_wall"] = sum(r["end"] - r["start"] for r in records)
    return result
