"""Shared NPB infrastructure: the ``randlc`` generator, classes, results.

NPB benchmarks draw every pseudo-random input from the same linear
congruential generator (``randlc`` in the Fortran sources):

    x_{k+1} = a * x_k  mod 2^46,      a = 5^13,  x_0 = 314159265

returning ``x / 2^46`` in (0, 1).  Because 2^46 divides 2^64, the update
is exact in wrapping 64-bit unsigned arithmetic.  So the ``i``-th state
after ``x`` is ``(a^i mod 2^46) * x mod 2^46``: one elementwise multiply
against a table of multiplier powers yields a whole chunk of the stream
with no sequential dependency, and a jump of ``k`` steps is one multiply
by ``a^k`` (found in O(log k) by repeated squaring -- the same trick NPB's
EP uses to parallelise generation).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro import obs

__all__ = [
    "MASK46",
    "DEFAULT_MULTIPLIER",
    "DEFAULT_SEED",
    "POWER_TABLE_LEN",
    "NPBClass",
    "Randlc",
    "randlc_jump_multiplier",
    "BenchmarkResult",
    "Timer",
]

MASK46 = np.uint64((1 << 46) - 1)
TWO_POW_46 = float(1 << 46)
DEFAULT_MULTIPLIER = 5**13  # 1220703125
DEFAULT_SEED = 314159265
#: Length of the cached multiplier-power table, and so the longest chunk
#: :meth:`Randlc.generate` produces with one vectorised multiply.
POWER_TABLE_LEN = 1 << 16


class NPBClass(enum.Enum):
    """NPB problem classes in increasing size.

    S is the sample (seconds on one core), W the workstation size; A < B < C
    are the full benchmark sizes.  The paper uses B for the small-board
    comparison (Table 2) and C everywhere else.
    """

    S = "S"
    W = "W"
    A = "A"
    B = "B"
    C = "C"

    @property
    def rank(self) -> int:
        return "SWABC".index(self.value)

    def __lt__(self, other: "NPBClass") -> bool:
        return self.rank < other.rank


def randlc_jump_multiplier(a: int, k: int) -> int:
    """``a^k mod 2^46`` by binary exponentiation.

    Advancing the stream by ``k`` steps is one multiply by this constant,
    which is how blocks of the stream are handed to different (simulated
    or real) workers without serialising generation.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    result = 1
    base = a & ((1 << 46) - 1)
    while k:
        if k & 1:
            result = (result * base) & ((1 << 46) - 1)
        base = (base * base) & ((1 << 46) - 1)
        k >>= 1
    return result


class Randlc:
    """Stateful scalar/vector NPB random-number generator.

    >>> rng = Randlc()
    >>> u = rng.next()          # one uniform in (0, 1)
    >>> block = rng.generate(1000)   # the next 1000, vectorised
    """

    __slots__ = ("_x", "_a")

    def __init__(self, seed: int = DEFAULT_SEED, a: int = DEFAULT_MULTIPLIER) -> None:
        if not 0 < seed < (1 << 46):
            raise ValueError("seed must be in (0, 2^46)")
        self._x = np.uint64(seed)
        self._a = np.uint64(a & ((1 << 46) - 1))

    @property
    def state(self) -> int:
        return int(self._x)

    def next(self) -> float:
        """Advance one step, returning a uniform float in (0, 1)."""
        # Python-int arithmetic: numpy scalars warn on uint64 wraparound.
        x = (int(self._a) * int(self._x)) & ((1 << 46) - 1)
        self._x = np.uint64(x)
        return x / TWO_POW_46

    def skip(self, k: int) -> None:
        """Jump the stream forward ``k`` steps in O(log k)."""
        jump = randlc_jump_multiplier(int(self._a), k)
        # Scalar path in Python ints: numpy scalars warn on uint64 wrap.
        self._x = np.uint64((jump * int(self._x)) & ((1 << 46) - 1))

    def generate(self, n: int, block: int = POWER_TABLE_LEN) -> np.ndarray:
        """The next ``n`` uniforms as a float64 array.

        The stream is produced in chunks of ``min(block, POWER_TABLE_LEN)``
        values: each chunk is the power table ``a^1..a^m`` times the
        current state, masked to 46 bits and scaled into the output in
        place, and its last state seeds the next chunk.  ``block`` changes
        only the chunk length, never the values.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        if block < 1:
            raise ValueError("block must be >= 1")
        out = np.empty(n, dtype=np.float64)
        if n == 0:
            return out
        chunk = min(block, POWER_TABLE_LEN, n)
        powers = _power_table(int(self._a))[:chunk]
        states = np.empty(chunk, dtype=np.uint64)
        x = self._x
        for lo in range(0, n, chunk):
            m = min(chunk, n - lo)
            s = states[:m]
            np.multiply(powers[:m], x, out=s)
            np.bitwise_and(s, MASK46, out=s)
            np.divide(s, TWO_POW_46, out=out[lo : lo + m])
            x = s[-1]
        self._x = x
        return out


@lru_cache(maxsize=4)
def _power_table(a: int) -> np.ndarray:
    """Read-only ``a^1..a^POWER_TABLE_LEN mod 2^46`` (uint64, 512 KB).

    Built by doubling: once ``a^1..a^k`` are known, the next ``k`` powers
    are those times ``a^k``.
    """
    table = np.empty(POWER_TABLE_LEN, dtype=np.uint64)
    table[0] = a & ((1 << 46) - 1)
    k = 1
    while k < POWER_TABLE_LEN:
        jump = np.uint64(randlc_jump_multiplier(a, k))
        np.bitwise_and(table[:k] * jump, MASK46, out=table[k : 2 * k])
        k *= 2
    table.flags.writeable = False
    return table


@dataclass
class BenchmarkResult:
    """Outcome of one *functional* NPB run on the host interpreter.

    ``mops`` here is host-measured (NumPy on this machine) and is reported
    by the examples for orientation only; paper-table regeneration uses the
    modelled rates from :mod:`repro.core`.
    """

    name: str
    npb_class: NPBClass
    verified: bool
    time_s: float
    total_mops: float
    details: dict[str, float] = field(default_factory=dict)

    @property
    def mops_per_s(self) -> float:
        if self.time_s <= 0:
            return float("inf")
        return self.total_mops / self.time_s

    def summary(self) -> str:
        status = "VERIFIED" if self.verified else "FAILED VERIFICATION"
        return (
            f"{self.name.upper()} class {self.npb_class.value}: {status}, "
            f"{self.time_s:.3f} s, {self.mops_per_s:.1f} Mop/s (host)"
        )


class Timer:
    """Minimal wall-clock context manager for the functional runs.

    Timing goes through :func:`repro.obs.host_timer`, the package's one
    sanctioned wall-clock site, so functional-run intervals land in the
    telemetry report's ``timings`` section when a recorder is installed.
    """

    def __init__(self) -> None:
        self.elapsed_s = 0.0

    def __enter__(self) -> "Timer":
        self._timer = obs.host_timer("npb.functional").__enter__()
        return self

    def __exit__(self, *exc: object) -> None:
        self._timer.__exit__(*exc)
        self.elapsed_s = self._timer.elapsed_s
