"""Machine-speed reference: a fixed probe sampled all through each timed call.

On a few cores of a shared host, speed changes by tens of percent within
seconds and drifts over minutes as other tenants come and go (over ten
runs of the nsoliton workload on a 2-core guest, the median wall time of
a round ranged from 2.7 s to 4.8 s); a command's wall time follows.
SpeedSampler times a probe of about 1.5 ms when a call starts, every
INTERVAL_S of wall time while it runs (from a SIGALRM handler) and when
it ends.  The probe mixes
the kinds of work the lab does: an interpreter loop, 3x3 matrix-vector
steps like the scattering integration's, radix-2 butterflies over strided
views of a 2048-point array, and elementwise complex maths.
A call's reference time is its wall time, less the time spent probing,
scaled by PROBE_REFERENCE_S over the mean probe time: the time the call
would take on a machine where the probe takes PROBE_REFERENCE_S.

Set-up time is mostly process start and shared-library loading, which the
probe does not track, so a set-up launch is rescaled the same way by
baseline launches of a fresh interpreter that imports numpy alone, made
right before and right after it, to LAUNCH_REFERENCE_S.

The probe and the baseline are the benchmark's own code on numpy alone, so
no change to the lab moves them.  PROBE_REFERENCE_S and LAUNCH_REFERENCE_S
are their medians on a 2-core Xeon guest (Python 3.11, numpy 2.4, OpenBLAS
0.3.31), so reference and wall seconds agree there on average.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

PROBE_REFERENCE_S = 0.0015
LAUNCH_REFERENCE_S = 0.160
INTERVAL_S = 0.05

_N = 2048
_rng = np.random.default_rng(20261017)
_SIGNAL = _rng.normal(size=_N) + 1j * _rng.normal(size=_N)
_ORDER = _rng.permutation(_N)
_TWIDDLES = [np.exp(-2j * np.pi * np.arange(1 << (s - 1)) / (1 << s)) for s in range(1, 12)]
_MAT = 0.1 * _rng.normal(size=(3, 3)) + 0j
_VEC = np.ones(3, dtype=complex)


def probe_s() -> float:
    """Wall seconds of one pass of the probe."""
    start = perf_counter()
    acc = 0
    for i in range(6000):
        acc += i * i % 7
    v = _VEC
    for _ in range(40):
        k = _MAT @ v
        v = v + 0.01 * (_MAT @ (v + 0.005 * k))
    y = _SIGNAL[_ORDER].copy()
    for stage, w in enumerate(_TWIDDLES, start=1):
        half = 1 << (stage - 1)
        y = y.reshape(_N >> stage, 2 * half)
        a, b = y[:, :half], y[:, half:] * w
        y[:, :half], y[:, half:] = a + b, a - b
        y = y.reshape(_N)
    np.exp(1j * _SIGNAL.real[:512]).sum()
    return perf_counter() - start


class SpeedSampler:
    """Times the enclosed call: wall_s, and ref_s in reference seconds.

    With sample=False nothing is probed and ref_s equals wall_s.
    """

    def __init__(self, sample: bool = True) -> None:
        self.sample = sample
        self.samples: list[float] = []
        self.probing_s = 0.0

    def _tick(self, signum, frame) -> None:
        begin = perf_counter()
        self.samples.append(probe_s())
        self.probing_s += perf_counter() - begin

    def __enter__(self) -> SpeedSampler:
        if self.sample:
            self.samples.append(probe_s())
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = perf_counter()
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.wall_s = end - self._start - self.probing_s
        self.ref_s = self.wall_s
        if self.sample:
            self.samples.append(probe_s())
            self.ref_s *= PROBE_REFERENCE_S / statistics.fmean(self.samples)


def launch_reference_seconds(wall_s: float, before_s: float, after_s: float) -> float:
    """Set-up time of a launch rescaled by the baseline launches around it."""
    return wall_s * LAUNCH_REFERENCE_S / (0.5 * (before_s + after_s))
