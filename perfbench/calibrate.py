"""Machine-speed calibration of the benchmark's times.

The benchmark shares a host whose CPU speed drifts by tens of percent within
a minute (other tenants, clock changes), while the program's work stays the
same.  To keep those drifts out of the figures, every time the benchmark
reports is a *calibrated* time: the measured time divided by the machine's
current slowdown.  The slowdown is the time of a fixed reference block over
the block's nominal time, so a calibrated time reads in seconds on a machine
that runs the block in its nominal time.

While the timed work runs, ``Sampler`` runs the reference block from a
``SIGALRM`` timer every ``INTERVAL_S`` of wall time.  The block's own time is
taken out of every interval it falls in, and each interval is divided by the
mean slowdown of the samples within ``WINDOW_S`` of it.  The program never calls
into this module and the blocks never call the program, so a change to
cavspin moves calibrated times exactly as it moves wall times.

A drift does not slow all work alike, so each workload is calibrated with
the block closest to its own work.  ``small_block`` (6x6 ``expm`` and
``eig`` in Python loops) serves the workloads of small matrices and Python
loops: moment traces, the optimizer and the dim-48 oracle.  ``large_block``
adds 100x100 dense linear algebra and a pass over 4 MB and serves the Dicke
workload, whose eigenbasis does not fit in cache.  ``python_block`` uses the
standard library only; it calibrates set-up, where importing numpy is part
of what is measured.
"""

from __future__ import annotations

import bisect
import functools
import signal
import statistics
import time

#: median time of each block, sampled during benchmark runs, on the machine
#: the bounds were set on (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4,
#: scipy 1.17, one BLAS thread)
SMALL_NOMINAL_S = 1.7e-3
LARGE_NOMINAL_S = 4.4e-3
PYTHON_NOMINAL_S = 0.75e-3
#: wall time between two samples of the reference block
INTERVAL_S = 0.025
#: samples this close to an interval on either side set its slowdown
WINDOW_S = 0.1


def python_block() -> None:
    """Fixed interpreter work: float arithmetic and dict stores."""
    s = 0.0
    d = {}
    for j in range(4000):
        s += (j * 0.5) % 7.0
        d[j & 63] = s


@functools.cache
def _small_matrix():
    import numpy as np

    return np.array([[0.05 * ((3 * i + 5 * j) % 7 - 3) for j in range(6)] for i in range(6)])


@functools.cache
def _large_arrays():
    import numpy as np

    mid = np.cos(np.arange(100 * 100, dtype=float)).reshape(100, 100)
    big = np.sin(np.arange(1 << 19, dtype=float))          # 4 MB, larger than L2
    return mid, mid + mid.T, big, np.empty_like(big)


def _small_part(loops: int) -> None:
    import numpy as np
    import scipy.linalg

    small = _small_matrix()
    v = np.ones(6)
    s = 0.0
    for _ in range(loops):
        v = scipy.linalg.expm(small) @ v
        for j in range(100):
            s += (j * 0.5) % 7.0
    for i in range(2 * loops):
        _, vecs = np.linalg.eig(small + 0.001 * i)
        v = np.real(vecs @ v)


def small_block() -> None:
    """6x6 ``expm`` and ``eig`` in Python loops, as in moments and optimize."""
    _small_part(12)


def large_block() -> None:
    """Three parts of about equal time: the small block's kind of work,
    dense linear algebra on 100x100 matrices, and a pass over 4 MB."""
    import numpy as np

    mid, sym, big, out = _large_arrays()
    _small_part(8)
    mid @ mid
    np.linalg.eigh(sym)
    np.multiply(big, 1.0001, out=out)
    float(out.sum())


class Sampler:
    """Samples a reference block on a wall-clock timer while it is on.

    ``start``/``stop`` bracket the timed work; ``calibrated(a, b)`` turns the
    ``perf_counter`` interval ``[a, b]`` into calibrated seconds.
    """

    def __init__(self, block, nominal_s: float):
        self.block = block
        self.nominal_s = nominal_s
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._on = False
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self.block()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())
        if self._on:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._on = True
        self._tick()                 # one sample at the start of every timed stretch

    def stop(self) -> None:
        self._on = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._tick()                 # and one at its end

    def paused(self, a: float, b: float) -> float:
        """Time the reference block took inside ``[a, b]``."""
        i = bisect.bisect_left(self.starts, a)
        j = bisect.bisect_left(self.starts, b)
        return sum(min(e, b) - s for s, e in zip(self.starts[i:j], self.ends[i:j]))

    def slowdown(self, a: float, b: float) -> float:
        """Mean block time within WINDOW_S of ``[a, b]`` over the nominal time."""
        i = bisect.bisect_left(self.starts, a - WINDOW_S)
        j = bisect.bisect_right(self.starts, b + WINDOW_S)
        if i == j:
            raise ValueError("no reference sample near the interval")
        return statistics.mean(e - s for s, e in zip(self.starts[i:j], self.ends[i:j])) \
            / self.nominal_s

    def median_slowdown(self) -> float:
        return statistics.median(e - s for s, e in zip(self.starts, self.ends)) / self.nominal_s

    def net(self, a: float, b: float) -> float:
        """Wall seconds of ``[a, b]`` without the reference block's own time."""
        return b - a - self.paused(a, b)

    def calibrated(self, a: float, b: float) -> float:
        return self.net(a, b) / self.slowdown(a, b)
