"""Crash-safe artifact writes: tmp file + ``os.replace``.

A bare ``path.write_text`` interrupted mid-write leaves a *truncated*
file behind -- and a truncated CSV still parses as a short-but-valid
table, which is far worse than no file at all.  Every artifact the
harness emits (table/figure CSVs, the export index, telemetry reports,
the sweep journal) goes through :func:`write_text_atomic` instead: the
content lands in a same-directory temporary file first and is moved over
the destination with :func:`os.replace`, which is atomic on POSIX.  A
crash -- or an injected ``io`` fault from the installed
:class:`~repro.faults.plan.FaultPlan` -- leaves the destination either
untouched or fully written, never torn.  The temporary file is named
per process and thread, so concurrent writers of one destination (two
processes sharing a result store) never rename each other's file away.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

from .plan import inject

__all__ = ["write_text_atomic"]


def write_text_atomic(path: str | Path, text: str, encoding: str = "utf-8") -> Path:
    """Write ``text`` to ``path`` atomically; returns the path written.

    The installed fault plan's ``io`` probe fires after the temporary
    file is written but before the rename -- the exact "crash
    mid-artifact-write" moment -- so resilience tests can assert the
    destination survives intact.  The temporary file is removed on any
    failure.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        tmp.write_text(text, encoding=encoding)
        inject("io.write", str(path), kinds=("io",))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
