"""A fixed reference kernel that scales wall times to one CPU speed.

The CPU speed of a small shared VM drifts: the same Fraction loop took
1.7 ms in one 10-second window and 2.9 ms a minute later, and the same
wall-queries work took between 4.0 and 9.2 s in 8-block windows of one
run.  So each timed operation is bracketed by runs of this kernel, which is
the benchmark's own code and never changes with kuwalls, and its wall time
is multiplied by NOMINAL_S over the median of the four kernel times around
it (a median, so that one preempted kernel run moves little).  A
reported time is therefore the wall time the operation would take on a
machine where the kernel takes NOMINAL_S.  Raw wall times
are printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

#: Kernel time defining the reported speed; about the median kernel time on a
#: shared 2-core x86-64 VM running CPython 3.11.
NOMINAL_S = 0.0004


def kernel() -> int:
    """Rational arithmetic and small-tuple building, like the library's own loops."""
    total = Fraction(0)
    for k in range(1, 30):
        a = Fraction(k, k + 3)
        total += a * a - Fraction(1, k)
    seen = set()
    for a in range(-6, 7):
        for b in range(-6, 7):
            vector = (a, b, a - b, a * b)
            if vector[0] * vector[1] - vector[2] not in seen:
                seen.add(vector)
    return total.denominator + len(seen)


def sample() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Bracket:
    """Kernel samples taken between consecutive timed operations.

    ``mark()`` samples the kernel right after an operation and returns the
    operation's index; ``factor(op)`` then uses the two samples before the
    operation and the two after it, so it is final once two more operations
    have been marked.
    """

    def __init__(self) -> None:
        self.samples = [sample()]

    def mark(self) -> int:
        self.samples.append(sample())
        return len(self.samples) - 2

    def factor(self, op: int) -> float:
        return NOMINAL_S / statistics.median(self.samples[max(0, op - 1) : op + 3])

    def run_factor(self) -> float:
        """One factor for everything timed so far, from the median kernel time."""
        return NOMINAL_S / statistics.median(self.samples)
