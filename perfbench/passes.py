"""The timed loop shared by the in-process workloads.

Untraced, an operation repeats until ``seconds`` have passed.  Traced,
it runs once to warm up, ``traced`` times untraced and then ``traced``
times with the layer wrappers installed, so the two walls compare the
same warm work and their difference is the tracing overhead.
"""

from __future__ import annotations

import time


def run_ops(operation, seconds: float, trace_out: str | None, traced: int):
    """``operation()`` returns ``(start, end, output)``; returns
    ``({"ops": [...], "traced_ops": [...]}, outputs)`` with each op as
    ``[op_id, start, end]``."""
    ops, outputs = [], []
    if trace_out is not None:
        outputs.append(operation()[2])
    deadline = time.perf_counter() + seconds
    while True:
        start, end, output = operation()
        ops.append([None, start, end])
        outputs.append(output)
        if len(ops) >= traced if trace_out is not None else time.perf_counter() >= deadline:
            break
    timing = {"ops": ops}
    if trace_out is not None:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)
        timing["traced_ops"] = []
        for i in range(traced):
            tracer.op = f"op{i}"
            start, end, output = operation()
            timing["traced_ops"].append([tracer.op, start, end])
            outputs.append(output)
        tracer.op = None
        tracer.write(trace_out)
    return timing, outputs
