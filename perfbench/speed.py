"""Machine-speed reference: timings scaled to a fixed machine speed.

The benchmark runs on shared hosts whose speed drifts: on a 2-core Xeon
VM, a fixed pure-Python loop did from 36 to 129 rounds per second within
two minutes, and its 20-second averages differed by 30%.  A run cannot
outlast that drift, so every timed stretch is bracketed by a fixed
reference kernel (exact polynomial arithmetic over Q in the benchmark's
own code, never the program's), and each task time is scaled by
REFERENCE_S / (the kernel's time measured around it).  A reported second
is then a second at the speed at which the kernel takes REFERENCE_S.
The kernel does not depend on the program, so a change to the program
moves the scaled times in the same proportion as the raw ones.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

from inputs import pmul

# The kernel's median time on the 2-core Xeon VM the baseline was
# measured on; it only sets the scale of the reported numbers.
REFERENCE_S = 0.004
# A reference timing after at least this much task time.
SEGMENT_S = 0.1


def _dense(seed: int, degree: int) -> dict:
    return {(a, s - a): Fraction((seed * 7919 + 31 * a + 17 * s) % 199 - 99,
                                 1 + (seed + a * s) % 9)
            for s in range(degree + 1) for a in range(s + 1)}


_A, _B = _dense(1, 6), _dense(2, 6)


def kernel_s() -> float:
    """Time of one run of the fixed reference kernel."""
    t0 = perf_counter()
    pmul(_A, _B)
    return perf_counter() - t0


class ScaledClock:
    """Times tasks run one after another and scales each by the reference
    kernel timed around it.

    `task_done(seconds)` records a task's raw time and, once SEGMENT_S of
    task time has gathered, times the kernel, closing a segment.  The
    tasks of a segment are scaled by the median of the two kernel times
    before it and the two after it, so one kernel run slowed by an
    interrupt moves no segment much."""

    def __init__(self):
        self.raw: list[float] = []
        self.bounds: list[int] = [0]          # task index where each segment starts
        self.refs: list[float] = [kernel_s()]
        self.pending = 0.0

    def task_done(self, seconds: float) -> None:
        self.raw.append(seconds)
        self.pending += seconds
        if self.pending >= SEGMENT_S:
            self.close()

    def close(self) -> None:
        if len(self.raw) > self.bounds[-1]:
            self.refs.append(kernel_s())
            self.bounds.append(len(self.raw))
            self.pending = 0.0

    def scaled(self) -> list[float]:
        """Each task's time at reference speed."""
        self.close()
        out = []
        for k in range(len(self.bounds) - 1):
            factor = REFERENCE_S / statistics.median(self.refs[max(k - 1, 0):k + 3])
            out += [t * factor for t in self.raw[self.bounds[k]:self.bounds[k + 1]]]
        return out


def scaled_call(fn) -> float:
    """Time fn() once, scaled by the median of three kernel timings before
    it and three after it (for stretches, like a cold set-up, that run
    outside this process)."""
    before = statistics.median(kernel_s() for _ in range(3))
    t0 = perf_counter()
    fn()
    elapsed = perf_counter() - t0
    after = statistics.median(kernel_s() for _ in range(3))
    return elapsed * REFERENCE_S / ((before + after) / 2)
