"""Built-in rules.  Importing this package registers R001-R013
(R008 and R011 are retired; their codes are not reused)."""

from __future__ import annotations

from . import (  # noqa: F401
    benchrecord,
    blocking,
    catalog,
    concurrency,
    determinism,
    lockorder,
    parity,
    resilience,
    storeio,
    telemetry,
    units,
)

__all__ = [
    "determinism",
    "concurrency",
    "units",
    "catalog",
    "parity",
    "telemetry",
    "resilience",
    "lockorder",
    "blocking",
    "storeio",
    "benchrecord",
]
