"""Typed error taxonomy for resilient sweep execution.

The sweep engine sorts every failure into exactly one of three buckets,
and each bucket has one -- and only one -- recovery policy:

``transient``
    :class:`TransientError` (and subclasses, including every injected
    fault from :mod:`repro.faults.plan`): the work is expected to succeed
    on a retry.  The engine retries with exponential backoff up to its
    ``retries`` budget, then propagates.
``dnr``
    :class:`repro.core.perfmodel.DNRError`: the configuration *cannot*
    run (the paper's "DNR" cells).  The verdict is a result, not a
    failure -- it is cached and replayed like any other result.
``fatal``
    Everything else: a real bug or an unrecoverable environment problem.
    Propagated to the caller exactly once; the engine never silently
    re-executes work to paper over it.

Keeping the classification in one function (rather than scattered
``except`` clauses) is what lint rule R007 enforces across
``repro.core`` and ``repro.harness``.
"""

from __future__ import annotations

__all__ = [
    "FaultError",
    "TransientError",
    "InjectedTransientError",
    "InjectedIOError",
    "classify",
]


class FaultError(Exception):
    """Base class for resilience-layer failures (injected or detected)."""


class TransientError(FaultError):
    """A failure expected to succeed on retry (flaky worker, busy I/O).

    Raise this (or a subclass) from a runner to opt into the sweep
    engine's retry-with-backoff path; anything else propagates once.
    """


class InjectedTransientError(TransientError):
    """A transient runner fault injected by a :class:`FaultPlan`."""


class InjectedIOError(FaultError, OSError):
    """A simulated I/O failure injected by a :class:`FaultPlan`.

    Subclasses :class:`OSError` so code that guards real filesystem
    errors exercises the identical handling path under injection.
    """


def classify(exc: BaseException) -> str:
    """Sort an exception into the taxonomy: transient / dnr / fatal."""
    # Imported lazily: repro.core.sweep imports this package, and the
    # taxonomy must stay importable without the model stack.
    from repro.core.perfmodel import DNRError

    if isinstance(exc, TransientError):
        return "transient"
    if isinstance(exc, DNRError):
        return "dnr"
    return "fatal"
