"""In-memory span recorder for the benchmark's traced run (stdlib only).

A span is ``(id, name, start, end, parent, op, depth)``:

* ``start``/``end`` come from ``time.perf_counter``, which on Linux reads
  ``CLOCK_MONOTONIC``, so spans written by different processes share one
  time axis and the ledger can nest a server span inside a client span;
* ``parent`` is the enclosing span on the same thread (``None`` at the
  top of a thread);
* ``op`` names the timed benchmark operation the span belongs to: it is
  inherited from the parent span, else taken from the thread's op (set by
  a wrapper that knows the operation, such as an HTTP handler reading the
  client's op header), else the process-wide op;
* ``depth`` is the nesting depth plus the process level (0 for the
  benchmark process, 1 for the program it drives), so a span of the
  program always ranks below the client span it serves.

Spans and counters stay in memory and are written out once, by
:meth:`Tracer.write`, when the process ends.

:class:`PatchOnImport` applies a wrapper to a module the moment the
program imports it, so tracing loads no module the program would not
load itself (``cli.modules_loaded`` stays the program's own count).
"""

from __future__ import annotations

import importlib.machinery
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager

OP_HEADER = "X-Perfbench-Op"


class Tracer:
    def __init__(self, level: int = 0, op: str | None = None) -> None:
        self.level = level
        self.op = op
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self.info: dict[str, object] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_thread_op(self, op: str | None) -> None:
        self._local.op = op

    def current_op(self) -> str | None:
        stack = self._stack()
        if stack:
            return stack[-1][1]
        return getattr(self._local, "op", None) or self.op

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent, op, depth = stack[-1]
            depth += 1
        else:
            parent = None
            op = getattr(self._local, "op", None) or self.op
            depth = self.level + 1
        span_id = next(self._ids)
        stack.append((span_id, op, depth))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, op, depth))

    def add_span(self, name: str, start: float, end: float, op: str | None) -> None:
        """Record an interval no single call covers (e.g. time in a queue)."""
        self.spans.append(
            (next(self._ids), name, start, end, None, op, self.level + 1)
        )

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        return traced

    def payload(self) -> dict:
        return {
            "level": self.level,
            "spans": self.spans,
            "counters": self.counters,
            "info": self.info,
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.payload(), fh)


class PatchOnImport:
    """``sys.meta_path`` finder running ``hooks[name](module)`` after import."""

    def __init__(self, hooks: dict) -> None:
        self.hooks = dict(hooks)

    def install(self) -> None:
        for name in list(self.hooks):
            module = sys.modules.get(name)
            if module is not None:
                self.hooks.pop(name)(module)
        sys.meta_path.insert(0, self)

    def find_spec(self, fullname, path, target=None):
        hook = self.hooks.pop(fullname, None)
        if hook is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            hook(module)

        spec.loader.exec_module = exec_and_patch
        return spec
