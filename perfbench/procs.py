"""Child processes of the benchmark: the program under test and workers.

Every child is reaped with ``os.wait4`` so its own peak resident memory
is known exactly (``ru_maxrss``, KiB on Linux); no child outlives the
call or object that started it.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
COMMAND_TIMEOUT_S = 120.0


def child_env(root: Path, **extra: str) -> dict[str, str]:
    """The environment of a program process: the checkout's sources on the
    path and no ``REPRO_*`` setting inherited from the caller."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env.update(extra)
    return env


def repro_argv(*args: str, trace_out: Path | None = None) -> list[str]:
    """``python -m repro ARGS``, or the traced launcher when ``trace_out``."""
    if trace_out is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(HERE / "launch.py"), str(trace_out), "--", *args]


def _reap(proc: subprocess.Popen, timeout: float) -> tuple[int, int]:
    """Wait for ``proc`` (killing it after ``timeout``); ``(code, maxrss KiB)``."""
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


@dataclass
class Completed:
    code: int
    stdout: bytes
    stderr: bytes
    start: float
    wall_s: float
    maxrss_kib: int


def run(argv: list[str], env: dict, cwd: Path, scratch: Path) -> Completed:
    """Run a command to completion, timing it from spawn to exit."""
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        code, maxrss = _reap(proc, COMMAND_TIMEOUT_S)
        wall = time.perf_counter() - start
    return Completed(code, out_path.read_bytes(), err_path.read_bytes(), start, wall, maxrss)


class Server:
    """``repro serve --port 0`` in a child; ``setup_s`` runs from spawn until
    its first ``/health`` answers 200."""

    def __init__(self, root: Path, scratch: Path, store: Path, trace_out: Path | None = None):
        self._err_path = scratch / "server.stderr"
        self._err = open(self._err_path, "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            repro_argv("serve", "--port", "0", "--store", str(store), trace_out=trace_out),
            stdout=subprocess.DEVNULL,
            stderr=self._err,
            env=child_env(root),
            cwd=root,
        )
        try:
            self.port = self._wait_for_port(deadline=start + 60)
            while True:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
                try:
                    conn.request("GET", "/health")
                    if conn.getresponse().status == 200:
                        break
                except OSError:
                    pass
                finally:
                    conn.close()
                if time.perf_counter() > start + 60:
                    raise RuntimeError("service never answered /health")
                time.sleep(0.005)
            self.setup_s = time.perf_counter() - start
        except BaseException:
            self.stop()
            raise

    def _wait_for_port(self, deadline: float) -> int:
        while time.perf_counter() < deadline:
            found = re.search(rb"listening on http://127\.0\.0\.1:(\d+) ", self._err_path.read_bytes())
            if found:
                return int(found.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"service did not start: {self._err_path.read_text(errors='replace')}")

    def stop(self) -> tuple[int, int]:
        """SIGINT (the server's clean shutdown), then reap; ``(code, maxrss)``."""
        try:
            if self.proc.returncode is None:
                self.proc.send_signal(signal.SIGINT)
                return _reap(self.proc, 20.0)
            return self.proc.returncode, 0
        finally:
            self._err.close()


class Worker:
    """``perfbench/worker.py WORKLOAD`` -- an in-process workload in its own
    interpreter; ``setup_s`` runs from spawn until it reports ready."""

    def __init__(self, root: Path, workload: str, scratch: Path):
        self._err = open(scratch / f"{workload}.stderr", "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), workload],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._err,
            env=child_env(root),
            cwd=root,
        )
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if line.strip() != b"ready":
            self.close()
            raise RuntimeError(f"{workload} worker failed to start")

    def run(self, config: dict) -> tuple[dict, int]:
        """Send the run's config; ``(result, maxrss KiB)``."""
        self.proc.stdin.write((json.dumps(config) + "\n").encode())
        self.proc.stdin.close()
        line = self.proc.stdout.readline()
        code, maxrss = self.close()
        if code != 0 or not line:
            raise RuntimeError(f"worker exited with {code}")
        return json.loads(line), maxrss

    def close(self) -> tuple[int, int]:
        try:
            if self.proc.returncode is None:
                if not self.proc.stdin.closed:
                    self.proc.stdin.close()
                return _reap(self.proc, 150.0)
            return self.proc.returncode, 0
        finally:
            self.proc.stdout.close()
            self._err.close()
