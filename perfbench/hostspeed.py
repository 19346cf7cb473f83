"""Host speed, measured by a fixed piece of work that does not touch ajtkit.

A shared host runs in fast and slow phases, up to twice apart, that last
from seconds to minutes; wall times of identical work follow them. The
benchmark runs `calibrate` between verdicts, and states each time at the
reference speed:

    time at reference speed = wall time * REFERENCE_S / local calibration time

where the local calibration time is the mean of the calibration samples
taken just before and just after the verdict. The calibration mixes, in
about equal shares of time, the kinds of work the workloads do: interpreted
integer and container code, big-int shifts and popcounts, and numpy calls on
small and on group-ring-sized arrays. A change to ajtkit cannot change it,
so a faster or slower program still shows as such.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# about the median of calibrate() in a fast phase of a 2-vCPU Intel Xeon VM,
# Python 3.11, numpy 2.4
REFERENCE_S = 0.014
# calibrate at most this often, in seconds of the run
INTERVAL_S = 0.2

_MASK_BITS = 8191
_FULL = (1 << _MASK_BITS) - 1
_SMALL = np.arange(49, dtype=np.int64)
_TABLE = np.arange(11**3, dtype=np.int64)


def _work() -> int:
    acc = 0
    table: dict[int, int] = {}
    xs = list(range(64))
    for i in range(33000):
        acc = (acc * 31 + xs[i & 63]) % 1000003
        table[i & 255] = acc
    mask = _FULL // 3
    for i in range(3600):
        step = i % 400 + 1
        rotated = ((mask << step) | (mask >> (_MASK_BITS - step))) & _FULL
        acc += (rotated & mask).bit_count()
    vec = _SMALL
    for k in range(1000):
        vec = (vec * 3 + k) % 101
        acc += int(vec.sum())
    vec = _TABLE
    for k in range(220):
        vec = np.roll(vec * 3 + k, 7) % 101
        acc += int(vec.sum())
    return acc


def calibrate() -> float:
    """Wall seconds of one fixed piece of work."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


class HostSpeed:
    """Calibration samples taken through a run, and the scale they give."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        took = calibrate()
        self.at.append(time.perf_counter())
        self.took.append(took)

    def maybe_sample(self) -> None:
        """Calibrate when the last sample is older than INTERVAL_S."""
        if not self.at or time.perf_counter() - self.at[-1] >= INTERVAL_S:
            self.sample()

    def scale(self, when: float) -> float:
        """REFERENCE_S over the mean of the samples that bracket perf_counter
        `when`, or over the one sample on its side at either end."""
        i = bisect.bisect_left(self.at, when)
        return REFERENCE_S / statistics.mean(self.took[max(0, i - 1):i + 1])
