"""Machine-speed probe, sampled while timed work runs.

On a shared 2-core virtual machine the speed of the same code drifts by up
to 2x over minutes, so raw wall times of one workload spread by 6-22 %
(quartile distance over median of ten runs).  While an interval is timed,
SIGALRM fires every ``PERIOD_S`` and runs a fixed probe of about 1 ms: an
interpreter loop, small-array numpy arithmetic and a streaming reduction
over 4 MiB, the three kinds of work the workloads are made of.  The probe
never calls polystab, so a change to the program cannot change it.

The probe slows down more than the workloads do: regressing log iteration
time on log probe time over ten runs of each workload gave slopes of
0.61-0.74 in one set of runs and about 0.8-1.0 in another.
``Interval.factor()`` is ``(REF_PROBE_S / median(probe times)) **
SENSITIVITY``, and a raw time multiplied by it estimates the time at the
speed where the probe takes ``REF_PROBE_S``.  On that machine this kept the
spread of ten-run medians at 4-7 % in both sets.  The probes add 2-4 % to
every timed interval.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
REF_PROBE_S = 1.0e-3  # reference probe time; sets the unit of normalised seconds
SENSITIVITY = 0.65  # d log(workload time) / d log(probe time), see above

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((64, 8))
_WEIGHT = _rng.random(64)[:, None]
_STREAM = _rng.standard_normal(512 * 1024)


def _probe() -> None:
    acc = 0
    for i in range(3000):
        acc += i * i
    y = _SMALL
    for _ in range(40):
        y = (_WEIGHT * y + _SMALL) * 0.5
        np.sum(y * y, axis=0)
    _STREAM.sum()
    _STREAM.sum()


def probe_once() -> float:
    """Time one probe, run right after an untimed one so its data is cached.

    Timing a warm probe keeps the program's own cache footprint (which a
    change to the program may alter) out of the speed estimate.
    """
    _probe()
    t0 = time.perf_counter()
    _probe()
    return time.perf_counter() - t0


class Interval:
    """Context manager that samples the probe while its body runs."""

    def __enter__(self):
        self.samples = [probe_once()]
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def _sample(self, signum, frame):
        self.samples.append(probe_once())

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self.samples.append(probe_once())
        return False

    def factor(self) -> float:
        return (REF_PROBE_S / statistics.median(self.samples)) ** SENSITIVITY
