"""repro.faults -- deterministic fault injection and resilience primitives.

The paper's methodology is long multi-machine sweeps; at production
scale the sweep engine must survive flaky workers, crashes mid-write and
slow environments without corrupting memoised results or telemetry.
This package supplies the four pieces that make that testable:

* a **typed error taxonomy** (:mod:`repro.faults.taxonomy`): transient
  failures are retried, DNR verdicts are cached, everything else
  propagates exactly once;
* a **seeded fault plan** (:mod:`repro.faults.plan`) installed behind a
  process-wide slot exactly like :mod:`repro.obs` -- call sites probe
  :func:`inject` unconditionally, and the schedule is a pure function of
  ``(seed, site, key, attempt)`` so faulted runs are reproducible;
* **crash-safe artifact writes** (:func:`write_text_atomic`);
* a **resumable sweep journal** (:class:`SweepJournal`) so interrupted
  regeneration runs restart from completed families.

The key invariant, locked in by ``tests/faults``: a sweep under injected
transient faults converges to bit-identical results and non-volatile
telemetry counters versus a fault-free run.
"""

from __future__ import annotations

from .atomic import write_text_atomic
from .journal import SweepJournal, decode_value, encode_value
from .plan import FaultPlan, NullFaultPlan, disable, inject, install, is_enabled, plan
from .taxonomy import (
    FaultError,
    InjectedIOError,
    InjectedTransientError,
    TransientError,
    classify,
)

__all__ = [
    "FaultError",
    "TransientError",
    "InjectedTransientError",
    "InjectedIOError",
    "classify",
    "FaultPlan",
    "NullFaultPlan",
    "plan",
    "install",
    "disable",
    "is_enabled",
    "inject",
    "write_text_atomic",
    "SweepJournal",
    "encode_value",
    "decode_value",
]
