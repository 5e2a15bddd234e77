"""A fixed reference loop that gauges how fast the current core runs Python.

On a shared host a core's speed flips by ~1.8x every few hundred ms and can
stay slow for minutes, invisibly to the guest (no steal time, CPU time tracks
wall time).  The worker runs this loop between the program's calls, at least
every PROBE_EVERY_S, and the benchmark scales each call's time by
REFERENCE_S / (the loop's time around that call): times then read as on a
core of fixed speed.  The loop mixes what tautint spends its time on (small
tuples, sorting, dict updates, Fraction and integer arithmetic) so that it
slows down with the program, and it never imports tautint.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from math import gcd
from time import perf_counter

# The loop's time on the reference core: about its time on an unloaded core
# of the 2-vCPU Intel Xeon host the benchmark was written on, so reference
# seconds read close to real seconds there.
REFERENCE_S = 0.0006
PROBE_EVERY_S = 0.02
_SQUARES = {i: i * i % 97 for i in range(64)}


def _loop() -> int:
    """Two halves that a slow core slows by different amounts: the Fraction
    half more than tautint's code, the integer half less.  Together they
    track it within ~4% on verify, pullback and psi code."""
    seen: dict[tuple[int, ...], int] = {}
    total = Fraction(0)
    for i in range(100):
        key = tuple(sorted((i % 7, i % 5, i % 3)))
        seen[key] = seen.get(key, 0) + 1
        total += Fraction(i % 11 + 1, i % 13 + 1)
    acc = total.numerator
    for i in range(1200):
        acc = (acc * 31 + _SQUARES[i & 63] * 7919 + i) % 1000003
        acc += gcd(acc, i + 1)
    return acc


class Probes:
    """Reference-loop timings taken between the calls of one round.

    Only ints and floats are kept while the round runs: they are not tracked
    by the garbage collector, so the number of loops, which depends on the
    core's speed, does not move the points where the program's collections
    run.  The loop's own objects die inside it and leave the collector's
    allocation count where it was.
    """

    def __init__(self) -> None:
        self.next_calls: list[int] = []
        self.seconds: list[float] = []
        self.total = 0.0

    def record(self, next_call: int) -> float:
        """Time one loop before call ``next_call``; return the clock after it."""
        began = perf_counter()
        _loop()
        now = perf_counter()
        self.next_calls.append(next_call)
        self.seconds.append(now - began)
        self.total += now - began
        return now

    def marks(self) -> list[list[float]]:
        """[index of the next call, loop seconds] for each loop, in order."""
        return [[call, loop] for call, loop in zip(self.next_calls, self.seconds)]


def scale(latencies: list[float], marks: list[list[float]]) -> list[float]:
    """Each call's time in reference seconds.

    A call between loop timings j and j+1 is scaled by the median of timings
    j-1 to j+2, so that one loop that was preempted does not skew its
    neighbours.  ``marks`` starts at call 0.
    """
    seconds = [loop for _, loop in marks]
    factors = [REFERENCE_S / statistics.median(seconds[max(j - 1, 0):j + 3])
               for j in range(len(marks))]
    scaled, j = [], 0
    for i, elapsed in enumerate(latencies):
        while j + 1 < len(marks) and marks[j + 1][0] <= i:
            j += 1
        scaled.append(elapsed * factors[j])
    return scaled
