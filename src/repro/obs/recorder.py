"""Telemetry recorders: hierarchical spans, named counters, host timers.

Two recorder implementations share one duck-typed API:

* :class:`TelemetryRecorder` -- the real thing.  Spans form a tree merged
  by name under their parent (entering ``span("run_many")`` twice under
  the same parent yields one node with ``count == 2``), counters are a
  flat ``name -> int`` map, and host timers accumulate wall-clock seconds
  into a separate ``timings`` section.
* :class:`NullRecorder` -- the disabled default.  Every method is a no-op
  returning shared singletons, so instrumented call sites cost one
  attribute lookup and one call when telemetry is off; call sites never
  branch on whether telemetry is enabled.

Determinism contract: counters and the span tree are pure functions of
the work performed -- byte-identical across serial, parallel and cached
executions of the same grid -- because

* counters only ever accumulate totals (addition commutes, so thread
  interleaving cannot reorder them);
* span nodes that parallel workers run under are *opened* in the
  submitting thread, in deterministic submission order, and only
  *activated* (made current for nested spans) inside the worker.

Wall-clock time is confined to ``timings``: :class:`HostTimer` is the
single place in the package that reads ``time.perf_counter`` (the
explicitly marked host-measurement site lint rules R001/R006 funnel
everything through), so everything outside the ``timings`` section of a
report is reproducible bit for bit.

Thread-safety: one lock guards the counter map, the timing map and span
tree mutation; the current-span stack is thread-local, so well-nestedness
is per-thread by construction and verified on every span exit.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext

__all__ = ["Span", "HostTimer", "NullRecorder", "TelemetryRecorder"]


class Span:
    """One node in the span tree: a name, an entry count, named children.

    Spans carry no wall-clock time -- they count.  Construct them through
    a recorder (``span()`` / ``open_span()``), never directly; lint rule
    R006 enforces that outside ``repro.obs``.
    """

    __slots__ = ("name", "count", "children", "parent")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.children: dict[str, Span] = {}
        self.parent: Span | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "count": self.count,
            "children": [c.to_dict() for c in self.children.values()],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, count={self.count}, children={len(self.children)})"


class HostTimer:
    """Context manager measuring one wall-clock interval.

    This is the package's only sanctioned ``perf_counter`` site: host
    measurements (STREAM, the functional NPB timers, HPL/HPCG drivers)
    enter one of these, read ``elapsed_s`` on exit, and the interval is
    recorded -- when a real recorder is installed -- under ``name`` in the
    report's volatile ``timings`` section.  Timing happens even when
    telemetry is disabled because callers need the measured value itself.
    """

    __slots__ = ("name", "elapsed_s", "_recorder", "_t0")

    def __init__(self, name: str, recorder) -> None:
        self.name = name
        self.elapsed_s = 0.0
        self._recorder = recorder

    def __enter__(self) -> "HostTimer":
        self._t0 = time.perf_counter()  # repro: noqa[R001] -- the one sanctioned host-measurement site
        return self

    def __exit__(self, *exc: object) -> None:
        self.elapsed_s = time.perf_counter() - self._t0  # repro: noqa[R001] -- the one sanctioned host-measurement site
        self._recorder.record_timing(self.name, self.elapsed_s)


class _SpanContext:
    """Enter/exit one (possibly merged) span under the current thread."""

    __slots__ = ("_recorder", "_name", "_node")

    def __init__(self, recorder: "TelemetryRecorder", name: str) -> None:
        self._recorder = recorder
        self._name = name

    def __enter__(self) -> Span:
        self._node = self._recorder.open_span(self._name)
        self._recorder._push(self._node)
        return self._node

    def __exit__(self, *exc: object) -> None:
        self._recorder._pop(self._node)


class _Activation:
    """Make an already-opened span current on *this* thread (no count)."""

    __slots__ = ("_recorder", "_node")

    def __init__(self, recorder: "TelemetryRecorder", node: Span) -> None:
        self._recorder = recorder
        self._node = node

    def __enter__(self) -> Span:
        self._recorder._push(self._node)
        return self._node

    def __exit__(self, *exc: object) -> None:
        self._recorder._pop(self._node)


#: Shared reusable no-op context manager (``nullcontext`` is reentrant).
_NULL_CONTEXT = nullcontext()


class NullRecorder:
    """The disabled recorder: every operation is a cheap no-op."""

    enabled = False

    def incr(self, name: str, n: int = 1) -> None:
        pass

    def span(self, name: str):
        return _NULL_CONTEXT

    def open_span(self, name: str) -> None:
        return None

    def activate(self, node) -> object:
        return _NULL_CONTEXT

    def abandon_span(self, node) -> None:
        pass

    def record_timing(self, name: str, elapsed_s: float) -> None:
        pass

    # -- snapshot API (shape-compatible with TelemetryRecorder) --------

    def counters_snapshot(self) -> dict[str, int]:
        return {}

    def timings_snapshot(self) -> dict[str, tuple[float, int]]:
        return {}

    def span_tree(self) -> dict:
        return {"name": "session", "count": 0, "children": []}

    def quiescent(self) -> bool:
        return True


class TelemetryRecorder:
    """Thread-safe recorder of counters, a span tree and host timings."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.root = Span("session")
        self.root.count = 1
        self._counters: dict[str, int] = {}
        self._timings: dict[str, list] = {}  # name -> [total_s, count]
        self._local = threading.local()
        self._open = 0

    # -- current-span bookkeeping --------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span:
        """This thread's innermost open span (the root when none is)."""
        stack = self._stack()
        return stack[-1] if stack else self.root

    def _push(self, node: Span) -> None:
        self._stack().append(node)
        with self._lock:
            self._open += 1

    def _pop(self, node: Span) -> None:
        stack = self._stack()
        if not stack or stack[-1] is not node:
            raise RuntimeError(
                f"span {node.name!r} exited out of order; open stack: "
                f"{[s.name for s in stack]}"
            )
        stack.pop()
        with self._lock:
            self._open -= 1

    # -- recording API -------------------------------------------------

    def incr(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def span(self, name: str) -> _SpanContext:
        """Context manager: open-or-merge a child span and make it current."""
        return _SpanContext(self, name)

    def open_span(self, name: str) -> Span:
        """Open-or-merge a child under the current span *without* entering it.

        Callers submitting work to other threads open spans here (in
        deterministic submission order) and pass the returned node to the
        worker, which enters it with :meth:`activate`.
        """
        parent = self.current()
        with self._lock:
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = Span(name)
                node.parent = parent
            node.count += 1
        return node

    def activate(self, node: Span | None):
        """Context manager making an opened span current on this thread."""
        if node is None:
            return _NULL_CONTEXT
        return _Activation(self, node)

    def abandon_span(self, node: Span | None) -> None:
        """Undo one :meth:`open_span` on a handle that will never run.

        Work submitted for parallel execution opens its span eagerly; when
        the work is then never executed (a sibling group failed first, a
        pool could not start its thread), the opened count would claim an
        execution that never happened.  Abandoning decrements the count
        and prunes the node when nothing else ever entered it, so the
        span tree stays a pure function of the work actually performed.
        """
        if node is None:
            return
        with self._lock:
            node.count -= 1
            if node.count <= 0 and not node.children and node.parent is not None:
                node.parent.children.pop(node.name, None)

    def record_timing(self, name: str, elapsed_s: float) -> None:
        with self._lock:
            cell = self._timings.get(name)
            if cell is None:
                self._timings[name] = [elapsed_s, 1]
            else:
                cell[0] += elapsed_s
                cell[1] += 1

    # -- snapshot API --------------------------------------------------

    def counters_snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counters)

    def timings_snapshot(self) -> dict[str, tuple[float, int]]:
        with self._lock:
            return {name: (cell[0], cell[1]) for name, cell in self._timings.items()}

    def span_tree(self) -> dict:
        with self._lock:
            return self.root.to_dict()

    def quiescent(self) -> bool:
        """Whether every span that was entered has been exited."""
        with self._lock:
            return self._open == 0
