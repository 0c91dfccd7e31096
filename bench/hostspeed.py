"""Host-speed calibration, so that timings compare across the speed swings
of a shared host.

On a shared 2-core host the same interpreter-bound work can take 1.6x
longer for tens of seconds at a time, as neighbours come and go. That is
longer than a run, so medians within a run cannot hide it; the speed also
flips within a second. The benchmark therefore times a fixed calibration
unit between ops, at least every CAL_EVERY_S. It rescales each op to a
reference host, on which one calibration unit takes REF_CAL_S:

    normalized = measured * REF_CAL_S / calibration time around the op

The unit mixes what capmac's hot paths do: Python floats taken from numpy
scalars, `math.fsum`, small frozen dataclasses and tiny numpy array ops.
capmac code never runs inside it, so a change to capmac moves the
normalized time as much as the measured one.
"""

from __future__ import annotations

import bisect
import math
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

REF_CAL_S = 0.0015      # one calibration unit on the reference host
CAL_EVERY_S = 0.02      # least loop time between two calibrations
_ITERATIONS = 150
_VALUES = np.linspace(0.5, 4.5, 9)


@dataclass(frozen=True)
class _Point:
    i: int
    value: float


def calibration_unit() -> float:
    """Seconds taken by one fixed unit of interpreter-bound work."""
    t0 = perf_counter()
    acc, rows = 0.0, []
    for i in range(_ITERATIONS):
        x = [float(v) * 1.5 for v in _VALUES]
        acc += math.fsum(x) / (i + 1)
        rows.append(_Point(i, acc))
        b = np.maximum(_VALUES * 2.0 + 1.0, 0.5)
        acc += float(b @ _VALUES)
    return perf_counter() - t0


def speed_factor() -> float:
    """REF_CAL_S over the median of 7 calibration units."""
    return REF_CAL_S / statistics.median(calibration_unit() for _ in range(7))


class HostClock:
    """Calibration samples taken between ops, and the factor that rescales
    a stretch of loop time to the reference host."""

    def __init__(self):
        self.times: list[float] = []
        self.cals: list[float] = []

    def sample(self):
        cal = min(calibration_unit(), calibration_unit())
        self.times.append(perf_counter())
        self.cals.append(cal)

    def maybe_sample(self):
        if perf_counter() - self.times[-1] >= CAL_EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """REF_CAL_S over the mean of the calibrations just before `start`
        and just after `end`."""
        before = bisect.bisect_right(self.times, start) - 1
        after = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        return REF_CAL_S / ((self.cals[max(before, 0)] + self.cals[after]) / 2)
