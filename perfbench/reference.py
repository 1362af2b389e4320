"""Host-speed reference: a fixed pure-Python loop timed between operations.

The benchmark's host is shared.  Its speed for interpreted code drifts by
±30% over minutes, so the same work reads very differently from run to run.
Program time over reference time, taken over the same few seconds, held
within about 2% through such swings.  The benchmark therefore reports every
time scaled by REFERENCE_S / (the reference's mean time over the same
pass): seconds on a host that runs the reference in REFERENCE_S.  The raw
times are kept in the --json record.

The reference shares no code with tracediagrams, so no change to the
program moves it, and it runs with the cyclic garbage collector off, so the
program's heap does not either.
"""

from __future__ import annotations

import gc
import time
from itertools import permutations

REFERENCE_S = 0.02            # a typical reading on the host it was tuned on
CADENCE_S = 0.25              # take a reading at most this often

_MATRIX = tuple(tuple((7 * i + 3 * j) % 11 - 5 for j in range(7))
                for i in range(7))


def reference_work() -> int:
    """Determinant of a fixed 7x7 integer matrix by permutation expansion:
    integer arithmetic, tuple indexing and loops, like the engine's own."""
    total = 0
    for p in permutations(range(7)):
        inversions = 0
        for i in range(7):
            for j in range(i + 1, 7):
                if p[i] > p[j]:
                    inversions += 1
        term = -1 if inversions & 1 else 1
        for i in range(7):
            term *= _MATRIX[i][p[i]]
        total += term
    return total


def reading_seconds() -> float:
    """Time of one reference_work call, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Times reference_work at most every CADENCE_S seconds."""

    def __init__(self, out):
        self._out = out
        self._last = float("-inf")
        self.spent = 0.0          # seconds spent in readings so far
        self.count = 0            # readings so far

    def reading(self):
        seconds = reading_seconds()
        self._out.write(f"ref {seconds!r}\n")
        self._last = time.perf_counter()
        self.spent += seconds
        self.count += 1

    def maybe_reading(self):
        if time.perf_counter() - self._last >= CADENCE_S:
            self.reading()
