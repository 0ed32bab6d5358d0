"""The host clock: the only place the benchmark reads wall time or rusage.

``src/repro`` never reads the wall clock (lint RR01); the simulated clock
is the program's.  Host cost is measured here, outside the program, and
normalised to *calibration units* so that a number taken on a slow minute
of a shared box compares with one taken on a fast minute.

1 cu = the wall time of one execution of :func:`Calibrator.__call__` — a
fixed reference loop mixing the two things the engine's host cost is made
of: NumPy sorting (three stable argsorts of a seeded 200 000-element int64
array) and interpreter bookkeeping (a 60 000-iteration dict-update loop).
"""

from __future__ import annotations

import resource
import time

import numpy as np

now = time.perf_counter

# What the reference loop takes on the box the benchmark was written on, in a
# quiet minute.  Only used to express speed-corrected set-up cost in seconds.
NOMINAL_UNIT_S = 0.070

_SORT_KEYS = 200_000
_SORT_REPEATS = 3
_DICT_ITERATIONS = 60_000


def peak_rss_mb() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Calibrator:
    """Times the reference loop; every reading is kept for the report."""

    def __init__(self):
        self._keys = np.random.default_rng(20260926).integers(
            0, 1 << 40, _SORT_KEYS, dtype=np.int64
        )
        self.readings: list[float] = []

    def __call__(self) -> float:
        start = now()
        for _ in range(_SORT_REPEATS):
            np.argsort(self._keys, kind="stable")
        counts: dict[int, int] = {}
        for i in range(_DICT_ITERATIONS):
            key = i & 1023
            counts[key] = counts.get(key, 0) + i
        elapsed = now() - start
        self.readings.append(elapsed)
        return elapsed

    def around(self, work, fresh: bool = True):
        """Time ``work()`` between two readings.  Returns (its result, its
        wall seconds, the unit around it: the mean of the two readings).
        ``fresh=False`` reuses the previous reading as the one before —
        right when nothing else ran since."""
        before = self() if fresh or not self.readings else self.readings[-1]
        start = now()
        result = work()
        wall = now() - start
        return result, wall, 0.5 * (before + self())


def to_cu(seconds: float, unit: float) -> float:
    """Express ``seconds`` in calibration units of ``unit`` seconds each."""
    if unit <= 0.0:
        raise ValueError("calibration reading must be positive")
    return seconds / unit
