"""HTTP API over the job manager (stdlib ``ThreadingHTTPServer``).

Endpoints (all JSON unless noted)::

    GET  /health                     liveness + job-state conservation counts
                                     + the latest bench-trajectory summary
    GET  /stats                      repro.obs counters and span tree (schema v1)
                                     + store stats and the bench trajectory
    POST /api/v1/jobs                submit a request -> 202 {job_id, ...}
    GET  /api/v1/jobs                list known jobs (admission order)
    GET  /api/v1/jobs/<id>           job status; ?wait=SECONDS blocks until
                                     terminal (or the deadline) before answering
    GET  /api/v1/jobs/<id>/artifact  the finished artifact (text/csv)
    POST /api/v1/jobs/<id>/cancel    cancel a queued job

Error mapping: malformed requests (bad ``Content-Length`` included) are
400 with a JSON ``error`` body, a body over 1 MiB or a job over the
per-job sample budget is 413, an unknown job is 404, a full queue is
429, and any unexpected handler failure is a 500 that names the
exception instead of a closed socket.  Every response is written in one
segment on a ``TCP_NODELAY`` socket, so keep-alive clients never wait on
a delayed ACK, and every POST body is read (or the connection closed)
even on routes that ignore it, so no leftover byte is parsed as the next
request.
The server itself holds no job state -- everything lives in the
:class:`~repro.service.jobs.JobManager`, so a server restart in front
of journal-backed jobs loses nothing but the in-memory lifecycle table.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro import obs
from repro.core.experiment import DEFAULT_RUNS
from repro.obs.export import report_dict

from .jobs import JobManager, JobState, QueueFull
from .requests import RequestError, parse_request

__all__ = ["ServiceServer", "create_server", "serve"]

API_PREFIX = "/api/v1/jobs"


def _bench_trajectory() -> dict | None:
    """The latest recorded perf-trajectory summary, or ``None``.

    Reads the append-only bench history (``REPRO_BENCH_HISTORY`` or
    ``benchmarks/history`` relative to the service's working
    directory).  Missing or unreadable history degrades to ``None`` --
    an ops endpoint must never fail because no benches ran yet.
    """
    import os

    from repro.bench.history import trajectory_summary

    root = os.environ.get("REPRO_BENCH_HISTORY", "benchmarks/history")
    try:
        return trajectory_summary(root)
    except Exception:
        return None

#: Submissions larger than this are rejected up front (HTTP 413): cost
#: estimation is exactly what lets the service refuse a grid it should
#: split into smaller jobs through the campaign runner instead.  The
#: bound counts samples (configs x runs), so a default-runs grid is
#: admitted up to this many configs and a huge ``runs`` on one config
#: is refused as well.
MAX_CONFIGS_PER_JOB = 20_000
MAX_SAMPLES_PER_JOB = MAX_CONFIGS_PER_JOB * DEFAULT_RUNS

#: POST bodies larger than this are refused (HTTP 413) unread.
MAX_BODY_BYTES = 2**20


class _BodyTooLarge(Exception):
    """A POST body over :data:`MAX_BODY_BYTES` (HTTP 413, left unread)."""


class ServiceServer(ThreadingHTTPServer):
    """A ThreadingHTTPServer carrying its job manager."""

    daemon_threads = True

    def __init__(self, address, manager: JobManager) -> None:
        super().__init__(address, _Handler)
        self.manager = manager


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    #: ``StreamRequestHandler.setup()`` sets ``TCP_NODELAY`` on the
    #: accepted socket, so a keep-alive reply never waits on Nagle.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def log_message(self, fmt: str, *args) -> None:  # pragma: no cover
        pass  # request logging is obs counters, not stderr lines

    @property
    def manager(self) -> JobManager:
        return self.server.manager

    def _send(self, code: int, body: bytes, content_type: str) -> None:
        """Write the status line, headers and body in one write.

        ``end_headers()`` would flush the head on its own and the body
        would follow in a second write; with Nagle's algorithm that
        second segment waits for the client's delayed ACK (~40 ms).
        Queuing the blank line and the body behind the headers lets
        ``flush_headers()`` send the whole response as one segment.
        """
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self._headers_buffer.extend((b"\r\n", body))
        self.flush_headers()

    def _send_json(self, code: int, payload: dict | list) -> None:
        body = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
        self._send(code, body, "application/json")

    def _error(self, code: int, message: str) -> None:
        self._send_json(code, {"error": message})

    def _read_raw_body(self) -> bytes:
        """The POST body's bytes, bounded before a byte of it is read.

        A malformed ``Content-Length`` is a 400 and one over
        :data:`MAX_BODY_BYTES` a 413; either way the body stays unread,
        so the connection is closed after the reply instead of parsing
        the leftover bytes as the next request.
        """
        raw_length = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            raise RequestError(
                f"Content-Length must be a non-negative integer, got {raw_length!r}"
            )
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise _BodyTooLarge(
                f"request body of {length} bytes exceeds the limit of "
                f"{MAX_BODY_BYTES} bytes"
            )
        return self.rfile.read(length) if length else b""

    def _read_body(self) -> dict:
        """The POST body as JSON (see :meth:`_read_raw_body` for bounds)."""
        raw = self._read_raw_body()
        if not raw:
            raise RequestError("empty request body (expected a JSON object)")
        try:
            return json.loads(raw)
        except ValueError:
            raise RequestError("request body is not valid JSON") from None

    def _discard_body(self) -> None:
        """Consume a body the route ignores, keeping keep-alive in step.

        A body that cannot be drained within bounds is left unread and
        the connection closes after the reply.
        """
        try:
            self._read_raw_body()
        except (RequestError, _BodyTooLarge):
            pass

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server's naming
        obs.incr("service.http_requests")
        try:
            self._route_get()
        except Exception as exc:
            obs.incr("service.http_errors")
            self._error(500, f"{type(exc).__name__}: {exc}")

    def do_POST(self) -> None:  # noqa: N802
        obs.incr("service.http_requests")
        try:
            self._route_post()
        except Exception as exc:
            obs.incr("service.http_errors")
            self._error(500, f"{type(exc).__name__}: {exc}")

    def _route_get(self) -> None:
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        if url.path == "/health":
            self._get_health()
        elif url.path == "/stats":
            self._get_stats()
        elif url.path == API_PREFIX:
            self._get_jobs()
        elif len(parts) == 4 and self.path.startswith(API_PREFIX + "/"):
            # /api/v1/jobs/<id>
            self._get_job(parts[3], parse_qs(url.query))
        elif (
            len(parts) == 5
            and url.path.startswith(API_PREFIX + "/")
            and parts[4] == "artifact"
        ):
            self._get_artifact(parts[3])
        else:
            self._error(404, f"no such endpoint: GET {url.path}")

    def _route_post(self) -> None:
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        if url.path == API_PREFIX:
            self._post_job()
            return
        self._discard_body()  # the other routes ignore it
        if (
            len(parts) == 5
            and url.path.startswith(API_PREFIX + "/")
            and parts[4] == "cancel"
        ):
            self._post_cancel(parts[3])
        else:
            self._error(404, f"no such endpoint: POST {url.path}")

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def _get_health(self) -> None:
        counts = self.manager.counts()
        store = self.manager.store
        self._send_json(
            200,
            {
                "status": "ok",
                "jobs": counts,
                "jobs_total": sum(counts.values()),
                "queue_size": self.manager.queue_size,
                "engine": {"jobs": self.manager.engine.jobs},
                "store": store.stats() if store is not None else None,
                "bench": _bench_trajectory(),
            },
        )

    def _get_stats(self) -> None:
        """The live obs report: counters + merged span tree, schema v1.

        Timings are the report's only volatile section and are included
        -- /stats is an ops endpoint, not a golden artifact; tests that
        want determinism drop the ``timings`` key.
        """
        report = report_dict(obs.recorder())
        report["service"] = {"jobs": self.manager.counts()}
        store = self.manager.store
        if store is not None:
            report["store"] = store.stats()
        report["bench"] = _bench_trajectory()
        self._send_json(200, report)

    def _get_jobs(self) -> None:
        payload = [
            {"job_id": job.job_id, "kind": job.request.kind, "state": job.state.value}
            for job in self.manager.jobs()
        ]
        self._send_json(200, payload)

    def _get_job(self, job_id: str, query: dict) -> None:
        wait = query.get("wait")
        if wait:
            try:
                timeout = float(wait[0])
            except ValueError:
                self._error(400, f"wait must be a number of seconds, got {wait[0]!r}")
                return
            self.manager.wait(job_id, timeout=timeout)
        status = self.manager.status(job_id)
        if status is None:
            self._error(404, f"unknown job {job_id!r}")
            return
        self._send_json(200, status)

    def _get_artifact(self, job_id: str) -> None:
        job = self.manager.get(job_id)
        if job is None:
            self._error(404, f"unknown job {job_id!r}")
            return
        artifact = self.manager.artifact(job_id)
        if artifact is None:
            self._error(
                409, f"job {job_id} is {job.state.value}, artifact not available"
            )
            return
        obs.incr("service.artifacts_served")
        self._send(200, artifact.encode(), "text/csv")

    def _post_job(self) -> None:
        try:
            request = parse_request(self._read_body())
        except RequestError as exc:
            obs.incr("service.bad_requests")
            self._error(400, str(exc))
            return
        except _BodyTooLarge as exc:
            obs.incr("service.rejected")
            self._error(413, str(exc))
            return
        from .requests import estimate

        cost = estimate(self.manager.engine, request)
        samples = cost["configs"] * request.runs
        if samples > MAX_SAMPLES_PER_JOB:
            obs.incr("service.rejected")
            self._error(
                413,
                f"{cost['configs']} configs x {request.runs} runs = {samples} "
                f"samples exceeds the per-job limit of {MAX_SAMPLES_PER_JOB} "
                f"({MAX_CONFIGS_PER_JOB} configs at the default {DEFAULT_RUNS} "
                "runs); split it into a campaign",
            )
            return
        try:
            job, deduplicated = self.manager.submit(request)
        except QueueFull as exc:
            self._error(429, str(exc))
            return
        self._send_json(
            202,
            {
                "job_id": job.job_id,
                "state": job.state.value,
                "deduplicated": deduplicated,
                "estimate": {
                    "configs": cost["configs"],
                    "families": cost["families"],
                },
            },
        )

    def _post_cancel(self, job_id: str) -> None:
        job = self.manager.get(job_id)
        if job is None:
            self._error(404, f"unknown job {job_id!r}")
            return
        cancelled = self.manager.cancel(job_id)
        self._send_json(
            200, {"job_id": job_id, "cancelled": cancelled, "state": job.state.value}
        )


def create_server(host: str, port: int, manager: JobManager) -> ServiceServer:
    """Bind (port 0 picks an ephemeral port; read ``server_port``)."""
    return ServiceServer((host, port), manager)


def serve(host: str, port: int, manager: JobManager) -> None:  # pragma: no cover
    """Run the API server until interrupted (the ``repro serve`` loop)."""
    server = create_server(host, port, manager)
    try:
        server.serve_forever()
    finally:
        server.server_close()
        manager.shutdown()
