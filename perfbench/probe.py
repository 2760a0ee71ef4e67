"""Machine-speed probe: a fixed reference kernel timed ten times a second.

The benchmark shares its CPUs with other tenants.  Their load makes the same
code run up to 25% faster or slower from one second to the next, and by as
much from one run to the next.  The probe times a fixed kernel of numpy and
plain Python work on the main thread every PERIOD seconds.  It runs from a
SIGALRM handler, so it also samples during long operations.  A window's
speed factor is its trimmed mean kernel time over NOMINAL_S: 1.0 at the
reference speed, above 1.0 when the machine is slower.  Dividing a wall time
by it gives the wall time at the reference speed.  The kernel uses only
numpy and fixed inputs, so it touches no state of the program under test,
and a change to the program does not change it.

Two limits.  Python runs a signal handler only between bytecodes, so a
sample that falls due inside one long LAPACK call (a QR or an eigh of a
second or more) runs when that call returns: such stretches are sampled at
their end only, and the factor weights the Python-level parts of an
operation more than its long kernels.  And the kernel takes 3-4% of the
process's time and shares its caches; its time is subtracted from every
duration, its effect on the caches is not.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD = 0.1
# kernel time at the reference speed (about the fastest the 2-CPU machine of
# the reference figures runs it); only scales every normalized time alike
NOMINAL_S = 0.003

_RNG = np.random.default_rng(12345)
_SMALL = _RNG.standard_normal((48, 48)) + 1j * _RNG.standard_normal((48, 48))
_LARGE = _RNG.standard_normal((160, 160)) + 1j * _RNG.standard_normal((160, 160))
_LD = np.longdouble(1.0000001)
_GRID = _RNG.standard_normal((32, 32)) + 1j * _RNG.standard_normal((32, 32))


def kernel() -> float:
    """About 4 ms of LAPACK, BLAS, FFT and interpreter work; returns a checksum."""
    acc = 0.0
    for _ in range(3):
        acc += float(np.abs(np.linalg.qr(_SMALL)[1][0, 0]))
    for _ in range(2):
        acc += float(np.abs((_LARGE @ _LARGE)[0, 0]))
    for _ in range(8):
        acc += float(np.abs(np.fft.ifft2(np.fft.fft2(_GRID))[0, 0]))
    x = 0.5
    for i in range(3000):
        x = (x * 1.000001 + i % 7) % 97.0
    y = np.longdouble(0.5)
    for i in range(300):
        y = (y * _LD + i) / _LD
    return acc + x + float(y)


class SpeedProbe:
    """Samples ``kernel`` every PERIOD seconds inside its ``with`` block."""

    def __init__(self):
        self.samples: list[float] = []
        self.times: list[float] = []
        self.busy_s = 0.0  # total time spent in the kernel
        self._previous = signal.SIG_DFL

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.times.append(t0)
        self.busy_s += dt

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, first: int = 0, last: int | None = None) -> float:
        """Speed factor from the samples with index in [first, last).

        The mean kernel time tracks the mean speed over the window; the
        lowest and highest tenth of the samples are dropped first, so a
        sample that caught a page fault or a collection does not count.
        """
        window = sorted(self.samples[first:last])
        cut = len(window) // 10
        window = window[cut:len(window) - cut]
        return statistics.fmean(window) / NOMINAL_S if window else 1.0
