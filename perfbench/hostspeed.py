"""Host speed, from fixed reference kernels timed inside each run.

The benchmark runs on a few cores of a shared host whose speed drifts
by up to 2x over minutes (the fastest round of the regime workload
took 5.2 to 13.0 s across two 10-seed sets of the same code on 2
vCPUs) and switches between a fast and a slow state every few seconds
(the Python kernel below reads 4.2 or 7.5 ms).  CPU time equals wall
time throughout, so the drift is in instruction speed and no in-run
minimum removes it.  The run therefore times three small kernels while
its cases run and reports each case at a nominal host speed:

    reported seconds = measured seconds * scale
    scale = prod over kernels k of (NOMINAL_S[k] / t_k) ** (1/3)

where t_k is the median time of kernel k over the samples taken while
the case ran, with the last one before it and the first one after it.
The kernels are the three kinds of work the program does: interpreted
Python, numpy on a grid-sized array, and a small dense eigensolve.
In the two 10-seed sets of perfbench/baseline*.json (2 vCPUs), the
spread (interquartile range over median) of wall_s and case_s_p50 was
0.035-0.157 scaled, against 0.065-0.355 measured.

The kernels are benchmark code that no change to the program touches,
so a change that makes the program slower or faster moves the reported
seconds by the same share as the measured ones.
"""

from __future__ import annotations

import contextlib
import math
import signal
import statistics
from time import perf_counter

import numpy as np

_rng = np.random.default_rng(12345)
# small enough that OpenBLAS runs the eigensolve on one thread; at 150
# it threads, and then waits 100 ms or more for the cores when the
# program's own threads are busy
_MATRIX = _rng.random((80, 80))
_VECTOR = _rng.random(10_000)


def _python():
    s = 0.0
    table = {}
    for i in range(30_000):
        s += (i * 0.5) % 7.0
        table[i & 255] = s


def _numpy():
    v = _VECTOR
    for _ in range(50):
        v = np.cumsum(np.exp(-v)) * 1e-4
        v = np.maximum(v, _VECTOR) - 0.5 * _VECTOR


def _lapack():
    for _ in range(2):
        np.linalg.eigvals(_MATRIX)


KERNELS = {"python": _python, "numpy": _numpy, "lapack": _lapack}
# each kernel's median time on 2 vCPUs in a fast period; only a scale,
# so that reported seconds stay close to measured ones
NOMINAL_S = {"python": 0.0040, "numpy": 0.0034, "lapack": 0.0045}
# while cases run, sample the kernels this often
EVERY_S = 0.5


class HostSpeed:
    """Kernel times of one run; the first pass warms numpy and LAPACK
    up and is not kept.

    Inside `sampling()` a SIGALRM timer samples the kernels every
    EVERY_S, in the main thread between two bytecodes of the program,
    so the samples fall inside the cases they measure.  `clock` leaves
    the time spent sampling out.  No thread or process is started."""

    def __init__(self):
        for fn in KERNELS.values():
            fn()
        self.samples = {name: [] for name in KERNELS}
        self.paused = 0.0

    def sample(self, n=1):
        for _ in range(n):
            for name, fn in KERNELS.items():
                t0 = perf_counter()
                fn()
                self.samples[name].append(perf_counter() - t0)

    def count(self):
        return len(self.samples["python"])

    def clock(self):
        """perf_counter without the time spent in timed samples; read
        again if a sample ran while it was read."""
        while True:
            paused = self.paused
            t = perf_counter()
            if paused == self.paused:
                return t - paused

    def _on_alarm(self, signum, frame):
        t0 = perf_counter()
        self.sample()
        self.paused += perf_counter() - t0

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def kernel_s(self, name, first=0, stop=None):
        return statistics.median(self.samples[name][first:stop])

    def scale(self, first=0, stop=None):
        """Factor from measured seconds to seconds at NOMINAL_S, from
        samples first to stop - 1 (all of them by default)."""
        return math.prod(NOMINAL_S[name] / self.kernel_s(name, first, stop)
                         for name in KERNELS) ** (1 / len(KERNELS))
