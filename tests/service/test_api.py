"""End-to-end HTTP tests against a live server, plus golden JSON snapshots.

Everything here talks to a real ``ThreadingHTTPServer`` over plain
urllib -- or ``http.client`` where a test needs one kept-alive
connection or hand-written headers; no test client shims -- so routing,
status codes, headers and worker-thread hand-off are all exercised
exactly as ``repro serve`` runs them.

The golden snapshots pin the two service documents that must stay
byte-stable across refactors: a finished job's status document (job IDs
are part of the dedup contract -- an accidental identity change silently
defeats duplicate-attachment across releases) and the ``/stats``
counters after a fixed request sequence.  Refresh intentionally with
``pytest tests/service --update-golden``.
"""

import difflib
import http.client
import itertools
import json
import socket
from collections import Counter
from pathlib import Path

from repro import obs
from repro.service import JobManager, create_server
from repro.service.api import MAX_BODY_BYTES, MAX_SAMPLES_PER_JOB

from .conftest import http_get, http_get_json, http_post_json

GOLDEN_DIR = Path(__file__).parent / "golden"

SWEEP = {"kind": "sweep", "machines": ["sg2044"], "kernels": ["ep"], "threads": [1, 2]}


def _submit_and_finish(live_server, payload=None) -> tuple[str, dict]:
    """POST a job, block until terminal, return (job_id, final status)."""
    status, body = http_post_json(live_server.url("/api/v1/jobs"), payload or SWEEP)
    assert status == 202, body
    job_id = body["job_id"]
    status, doc = http_get_json(live_server.url(f"/api/v1/jobs/{job_id}?wait=30"))
    assert status == 200
    return job_id, doc


class TestEndpoints:
    def test_health(self, live_server):
        status, body = http_get_json(live_server.url("/health"))
        assert status == 200
        assert body["status"] == "ok"
        assert body["jobs_total"] == sum(body["jobs"].values())
        assert body["queue_size"] == 16
        assert body["engine"] == {"jobs": 2}

    def test_submit_poll_artifact_round_trip(self, live_server):
        job_id, doc = _submit_and_finish(live_server)
        assert doc["state"] == "done"
        assert doc["artifact_ready"] is True
        assert doc["progress"] == {"completed": 2, "total": 2}
        assert doc["request"]["kind"] == "sweep"

        status, artifact = http_get(live_server.url(f"/api/v1/jobs/{job_id}/artifact"))
        assert status == 200
        text = artifact.decode()
        assert text.startswith("machine,kernel,class,threads,")
        # The HTTP artifact is the manager's artifact, byte for byte.
        assert text == live_server.manager.artifact(job_id)

        status, listing = http_get_json(live_server.url("/api/v1/jobs"))
        assert status == 200
        assert listing == [{"job_id": job_id, "kind": "sweep", "state": "done"}]

    def test_duplicate_submission_over_http(self, live_server):
        job_id, _ = _submit_and_finish(live_server)
        status, body = http_post_json(
            live_server.url("/api/v1/jobs"),
            {**SWEEP, "threads": [2, 1]},  # different spelling, same work
        )
        assert status == 202
        assert body["job_id"] == job_id
        assert body["deduplicated"] is True

    def test_submit_rejects_malformed(self, live_server):
        for payload in ({}, {"kind": "sweep", "kernels": ["ep"]}, {"kind": "x"}):
            status, body = http_post_json(live_server.url("/api/v1/jobs"), payload)
            assert status == 400
            assert "error" in body

    def test_submit_rejects_unrunnable_requests(self, live_server):
        for payload in (
            {"kind": "whatif", "kernel": []},
            {"kind": "whatif", "kernel": "ep", "threads": 10**9},
            {**SWEEP, "classes": ["A"], "threads": [10**9]},
        ):
            status, body = http_post_json(live_server.url("/api/v1/jobs"), payload)
            assert status == 400, (payload, body)
            assert "error" in body
        status, health = http_get_json(live_server.url("/health"))
        assert health["jobs_total"] == 0  # no job was created
        assert obs.counter_value("service.submitted") == 0

    def test_submit_rejects_oversized_grid(self, live_server):
        huge = {
            "kind": "sweep",
            "machines": ["sg2042", "sg2044"],
            "kernels": ["is", "mg", "ep", "cg", "ft"],
            "classes": ["S", "W", "A", "B", "C"],
            # Every point is runnable (both machines have 64 cores), so
            # only the grid's size can refuse it: 2*5*5*64*7 = 22,400.
            "threads": list(range(1, 65)),
            "compilers": [
                "gcc-15.2", "gcc-14.2", "gcc-13.1", "gcc-12.3.1",
                "gcc-11.2", "gcc-9.2", "gcc-8.4",
            ],
        }
        status, body = http_post_json(live_server.url("/api/v1/jobs"), huge)
        assert status == 413
        assert "campaign" in body["error"]

    def test_unknown_job_is_404(self, live_server):
        for path in (
            "/api/v1/jobs/sweep-nope",
            "/api/v1/jobs/sweep-nope/artifact",
        ):
            status, body = http_get_json(live_server.url(path))
            assert status == 404, path
        status, _ = http_post_json(live_server.url("/api/v1/jobs/sweep-nope/cancel"), {})
        assert status == 404

    def test_unknown_route_is_404(self, live_server):
        assert http_get(live_server.url("/api/v2/jobs"))[0] == 404
        assert http_post_json(live_server.url("/api/v1/nope"), {})[0] == 404

    def test_bad_wait_param_is_400(self, live_server):
        job_id, _ = _submit_and_finish(live_server)
        status, body = http_get_json(
            live_server.url(f"/api/v1/jobs/{job_id}?wait=soon")
        )
        assert status == 400
        assert "wait" in body["error"]

    def test_stats_reports_service_counters(self, live_server):
        _submit_and_finish(live_server)
        status, report = http_get_json(live_server.url("/stats"))
        assert status == 200
        assert report["version"] == 1
        assert report["counters"]["service.submitted"] == 1
        assert report["counters"]["service.completed"] == 1
        assert report["service"]["jobs"]["done"] == 1

    def test_health_and_stats_surface_bench_trajectory(
        self, live_server, tmp_path, monkeypatch
    ):
        from repro.bench.history import BenchHistory

        # No history recorded: the endpoints degrade to None, never 500.
        monkeypatch.setenv("REPRO_BENCH_HISTORY", str(tmp_path / "none"))
        status, body = http_get_json(live_server.url("/health"))
        assert status == 200
        assert body["bench"] is None

        BenchHistory(tmp_path / "history").append({
            "run": {"git_sha": "a" * 40, "timestamp": "2026-08-09T00:00:00Z",
                    "suites": ["store"], "empty": False},
            "entries": [{"label": "store.get", "suite": "store", "get_s": 0.5}],
        })
        monkeypatch.setenv("REPRO_BENCH_HISTORY", str(tmp_path / "history"))
        status, body = http_get_json(live_server.url("/health"))
        assert status == 200
        assert body["bench"]["runs"] == 1
        assert body["bench"]["labels"] == 1
        assert body["bench"]["latest"]["suites"] == ["store"]
        assert body["bench"]["latest"]["git_sha"].startswith("a")

        status, report = http_get_json(live_server.url("/stats"))
        assert status == 200
        assert report["bench"]["runs"] == 1


def _raw_post(live_server, headers: dict, body: bytes = b"") -> tuple[int, str, dict]:
    """POST with hand-written headers: ``(status, Connection header, JSON)``."""
    conn = http.client.HTTPConnection("127.0.0.1", live_server.server.server_port, timeout=30)
    try:
        conn.putrequest("POST", "/api/v1/jobs")
        for name, value in headers.items():
            conn.putheader(name, value)
        conn.endheaders(body or None)
        response = conn.getresponse()
        return response.status, response.getheader("Connection"), json.loads(response.read())
    finally:
        conn.close()


class TestBoundedInputs:
    """A POST is bounded before its body is read or a job is created."""

    def test_bad_content_length_is_400(self, live_server):
        for length in ("abc", "-1"):
            status, connection, body = _raw_post(live_server, {"Content-Length": length})
            assert status == 400, (length, body)
            assert "Content-Length" in body["error"]
            assert connection == "close"  # the unread body cannot be reused
        self._assert_no_job(live_server)

    def test_body_over_limit_is_413_unread(self, live_server):
        # Only the header is sent: the refusal must not wait for the body.
        status, connection, body = _raw_post(
            live_server, {"Content-Length": str(MAX_BODY_BYTES + 1)}
        )
        assert status == 413
        assert str(MAX_BODY_BYTES) in body["error"]
        assert connection == "close"
        self._assert_no_job(live_server)

    def test_runs_count_against_the_sample_budget(self, live_server):
        payload = {**SWEEP, "threads": [1], "runs": 10**6}
        status, body = http_post_json(live_server.url("/api/v1/jobs"), payload)
        assert status == 413
        assert "samples" in body["error"] and "campaign" in body["error"]
        self._assert_no_job(live_server)

    @staticmethod
    def _assert_no_job(live_server):
        status, health = http_get_json(live_server.url("/health"))
        assert status == 200 and health["jobs_total"] == 0
        assert obs.counter_value("service.submitted") == 0


def _spy_on(server) -> tuple[list, list]:
    """Swap in a handler recording ``TCP_NODELAY`` and writes per response.

    Returns ``(nodelay, writes)``: the ``TCP_NODELAY`` option of every
    accepted socket, and one response ID per write on the connection.
    Each write is recorded before it is sent, so once a client holds a
    whole response, every write that made it is already counted.
    """
    nodelay: list[int] = []
    writes: list[int] = []
    response_ids = itertools.count()

    class Writer:
        def __init__(self, raw, handler):
            self._raw = raw
            self._handler = handler

        def write(self, data):
            writes.append(self._handler.response_id)
            return self._raw.write(data)

        def __getattr__(self, name):
            return getattr(self._raw, name)

    class SpyHandler(server.RequestHandlerClass):
        def setup(self):
            super().setup()
            nodelay.append(
                self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )
            self.wfile = Writer(self.wfile, self)

        def handle_one_request(self):
            self.response_id = next(response_ids)
            super().handle_one_request()

    server.RequestHandlerClass = SpyHandler
    return nodelay, writes


def _call(conn, method: str, path: str, payload: dict | None = None) -> tuple[int, bytes]:
    """One request on a kept-alive ``http.client`` connection."""
    body = None if payload is None else json.dumps(payload).encode()
    headers = {} if body is None else {"Content-Type": "application/json"}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


class TestTransport:
    """The keep-alive floor, pinned without timing anything.

    A response split over two writes on a Nagle socket waits for the
    client's delayed ACK (~40 ms) before its second segment leaves.
    """

    def test_accepted_socket_sets_tcp_nodelay(self, live_server):
        nodelay, _ = _spy_on(live_server.server)
        assert http_get(live_server.url("/health"))[0] == 200
        assert len(nodelay) == 1 and nodelay[0] != 0

    def test_every_response_is_one_write(self, live_server):
        _, writes = _spy_on(live_server.server)
        job_id, _ = _submit_and_finish(live_server)  # 202 + status JSON
        statuses = [
            http_get(live_server.url("/health"))[0],
            http_get(live_server.url(f"/api/v1/jobs/{job_id}/artifact"))[0],  # CSV
            http_get(live_server.url("/stats"))[0],
            http_get(live_server.url("/api/v2/jobs"))[0],  # 404
            http_post_json(live_server.url("/api/v1/jobs"), {"kind": "x"})[0],  # 400
            _raw_post(live_server, {"Content-Length": str(MAX_BODY_BYTES + 1)})[0],
        ]
        assert statuses == [200, 200, 200, 404, 400, 413]
        per_response = Counter(writes)
        assert len(per_response) == 2 + len(statuses)
        assert set(per_response.values()) == {1}, per_response

    def test_keepalive_round_trips_match_urllib(self, live_server):
        payloads = (
            SWEEP,
            {"kind": "table", "number": 5},
            {"kind": "whatif", "kernel": "ep", "threads": 16},
        )
        conn = http.client.HTTPConnection(
            "127.0.0.1", live_server.server.server_port, timeout=30
        )
        try:
            sockets = set()
            for payload in payloads:
                status, body = _call(conn, "POST", "/api/v1/jobs", payload)
                assert status == 202, body
                job_id = json.loads(body)["job_id"]
                status, body = _call(conn, "GET", f"/api/v1/jobs/{job_id}?wait=30")
                assert status == 200 and json.loads(body)["state"] == "done"
                status, artifact = _call(conn, "GET", f"/api/v1/jobs/{job_id}/artifact")
                assert status == 200
                sockets.add(conn.sock)

                status, via_urllib = http_get(live_server.url(f"/api/v1/jobs/{job_id}/artifact"))
                assert status == 200 and artifact == via_urllib
            assert len(sockets) == 1  # one connection carried every call
        finally:
            conn.close()


class TestQueuedJobsOverHTTP:
    """Paths that need jobs to *stay* queued use a workers=0 manager."""

    def _paused_server(self, tmp_path):
        manager = JobManager(workers=0, queue_size=4, artifact_dir=tmp_path)
        return create_server("127.0.0.1", 0, manager), manager

    def test_cancel_and_artifact_conflict(self, tmp_path):
        import threading

        server, manager = self._paused_server(tmp_path)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_port}"
        try:
            status, body = http_post_json(base + "/api/v1/jobs", SWEEP)
            assert status == 202 and body["state"] == "queued"
            job_id = body["job_id"]

            # The artifact of a queued job is a 409, not an empty 200.
            status, body = http_get_json(f"{base}/api/v1/jobs/{job_id}/artifact")
            assert status == 409
            assert "queued" in body["error"]

            status, body = http_post_json(f"{base}/api/v1/jobs/{job_id}/cancel", {})
            assert status == 200
            assert body == {"job_id": job_id, "cancelled": True, "state": "cancelled"}
            # Cancel is idempotent over HTTP too.
            status, body = http_post_json(f"{base}/api/v1/jobs/{job_id}/cancel", {})
            assert status == 200 and body["cancelled"] is True

            status, _ = http_get_json(base + "/stats")
            assert status == 200
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_sample_budget_boundary(self, tmp_path):
        """A default-runs grid's worth of runs on one config, not one more."""
        import threading

        server, manager = self._paused_server(tmp_path)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_port}"
        one = {**SWEEP, "threads": [1]}
        try:
            status, body = http_post_json(
                base + "/api/v1/jobs", {**one, "runs": MAX_SAMPLES_PER_JOB}
            )
            assert status == 202 and body["state"] == "queued"
            status, body = http_post_json(
                base + "/api/v1/jobs", {**one, "runs": MAX_SAMPLES_PER_JOB + 1}
            )
            assert status == 413 and "campaign" in body["error"]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


# ----------------------------------------------------------------------
# Golden snapshots
# ----------------------------------------------------------------------


def _check_golden(name: str, actual: str, update_golden: bool) -> None:
    golden_path = GOLDEN_DIR / name
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden_path.write_text(actual)
        return
    assert golden_path.exists(), (
        f"missing golden snapshot {golden_path}; "
        "run `pytest tests/service --update-golden` to create it"
    )
    expected = golden_path.read_text()
    if actual != expected:
        diff = "".join(
            difflib.unified_diff(
                expected.splitlines(keepends=True),
                actual.splitlines(keepends=True),
                fromfile=f"golden/{name}",
                tofile="this run",
            )
        )
        raise AssertionError(
            f"service document drifted from golden/{name}.\n"
            "If the change is intentional, refresh with\n"
            "    pytest tests/service --update-golden\n"
            f"and commit the diff:\n{diff}"
        )


def test_status_document_golden(live_server, update_golden):
    """The full status JSON -- including the job ID -- is release-stable."""
    _, doc = _submit_and_finish(live_server)
    _check_golden(
        "status_ep_sweep.json",
        json.dumps(doc, indent=2, sort_keys=True) + "\n",
        update_golden,
    )


def test_stats_counters_golden(live_server, update_golden):
    """Counters after a fixed sequence: submit, wait, stats.

    Pins the whole service/engine counter surface for one job the same
    way ``tests/obs/golden`` pins the harness pipelines; ``timings`` and
    spans are volatile and excluded.
    """
    _submit_and_finish(live_server)
    status, report = http_get_json(live_server.url("/stats"))
    assert status == 200
    snapshot = {"counters": report["counters"], "service": report["service"]}
    _check_golden(
        "stats_counters.json",
        json.dumps(snapshot, indent=2, sort_keys=True) + "\n",
        update_golden,
    )
