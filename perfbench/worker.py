"""In-process workload worker.

Usage::

    python perfbench/worker.py design_sweep|npb_functional

Imports the workload and calls its ``prepare()`` (the set-up the parent
times), prints ``ready``, reads one JSON config line from stdin and
prints the result of ``run(prepared, **config)`` as one JSON line.  End
of input before the config line means "set-up only": exit at once.
"""

from __future__ import annotations

import importlib
import json
import sys


def main() -> int:
    workload = importlib.import_module(sys.argv[1])
    prepared = workload.prepare()
    print("ready", flush=True)
    line = sys.stdin.readline()
    if not line:
        return 0
    print(json.dumps(workload.run(prepared, **json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
