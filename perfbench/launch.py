"""Traced entry point: ``repro.cli.main`` with the layer wrappers installed.

Usage::

    python perfbench/launch.py TRACE_OUT -- <repro arguments>

Records the import of ``repro.cli`` as the ``cli.import`` span and the
command as ``cli.main`` (its self time is the imports and argument
parsing the command does before reaching a traced layer), applies
:mod:`layers` as the program imports each module, runs the command and
writes the spans to ``TRACE_OUT`` when it returns (``serve`` returns on
SIGINT).  ``PERFBENCH_OP`` names the benchmark op the process serves.
"""

from __future__ import annotations

import os
import sys

import layers
from tracer import Tracer


def main() -> int:
    out, sep, *argv = sys.argv[1:]
    if sep != "--" or not argv:
        print("usage: launch.py TRACE_OUT -- <repro arguments>", file=sys.stderr)
        return 2
    tracer = Tracer(level=1, op=os.environ.get("PERFBENCH_OP"))
    layers.install(tracer)
    try:
        with tracer.span("cli.import"):
            import repro.cli
        with tracer.span("cli.main"):
            return repro.cli.main(argv)
    finally:
        tracer.info["command"] = argv[0]
        tracer.info["modules_loaded"] = sum(
            1 for name in sys.modules if name == "repro" or name.startswith("repro.")
        )
        tracer.write(out)


if __name__ == "__main__":
    sys.exit(main())
