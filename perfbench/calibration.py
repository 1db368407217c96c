"""Machine-speed calibration of the benchmark's end-to-end times.

The benchmark runs on virtual machines that share their cores.  On the
one it was defined on, the speed of a single core switched between a
fast and a slow state (about 1.6x apart) several times a second, and
identical work took from 0.9 s to 1.5 s depending on the minute.  A
small fixed numpy kernel that shares no code with ribv is therefore
timed over and over while the benchmark runs: from a CPU-time interval
timer (``SIGPROF``) every TICK_S while the workload computes, and in
bursts between repetitions.  A window's seconds, less the time the
kernel itself took inside it, are multiplied by ``KERNEL_REF_S / (mean
kernel seconds in it)`` raised to the workload's ``speed_power``
(workloads.py).  With power 1 that is the time the window would have
taken at the speed at which the kernel takes KERNEL_REF_S.  A change to
ribv does not change the kernel, so it moves the rescaled times as much
as the raw ones.  The raw seconds stay in result.json.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

# median kernel seconds on the machine the benchmark was defined on, at
# its fast state
KERNEL_REF_S = 0.67e-3
# CPU seconds between two samples while the timer runs
TICK_S = 0.05
# samples taken on each side of a window that holds fewer than twice as
# many of its own
NEIGHBOURS = 4
clock = time.perf_counter

_rng = np.random.default_rng(12345)
_A = _rng.normal(size=(48, 48)) / 48
_X = _rng.normal(size=(16, 3, 48))
_T = _rng.normal(size=(16, 3, 3))


def _kernel() -> None:
    v = np.ones(48)
    for _ in range(150):
        v = np.tanh(_A @ v + 0.1)
    np.einsum("cia,cij,cjb->ab", _X, _T, _X)


def kernel_seconds() -> float:
    """Time a fixed mix of small numpy calls from a Python loop and a
    three-operand einsum, the two kinds of work that dominate the
    workloads.  It runs once untimed first, so that the timed pass finds
    its data in cache whatever the program did before."""
    _kernel()
    t0 = clock()
    _kernel()
    return clock() - t0


class SpeedProbe:
    """Kernel samples over a run, each with the clock readings at which
    its work started and ended."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernel: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = clock()
            k = kernel_seconds()
            self.starts.append(t0)
            self.ends.append(clock())
            self.kernel.append(k)

    def start(self) -> None:
        """Sample every TICK_S of CPU time until stop()."""
        signal.signal(signal.SIGPROF, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def busy_s(self, t0: float, t1: float) -> float:
        """Seconds spent sampling within [t0, t1]."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_right(self.ends, t1)
        return sum(self.ends[k] - self.starts[k] for k in range(i, j))

    def net_s(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] less the sampling within it."""
        return t1 - t0 - self.busy_s(t0, t1)

    def factor(self, t0: float, t1: float) -> float:
        """KERNEL_REF_S over the mean of the samples within [t0, t1],
        widened by NEIGHBOURS samples on each side when they are few."""
        i = bisect.bisect_left(self.ends, t0)
        j = bisect.bisect_right(self.ends, t1)
        if j - i < 2 * NEIGHBOURS:
            i, j = max(0, i - NEIGHBOURS), j + NEIGHBOURS
        around = self.kernel[i:j]
        return KERNEL_REF_S / (sum(around) / len(around))
