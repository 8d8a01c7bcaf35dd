"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the same job can take twice as long from one minute to the
next, because other tenants take turns on the same cores.  ``run.py`` times
this kernel next to every job and reports job times scaled to the speed at
which the kernel takes ``NOMINAL_S``.  The kernel is part of the benchmark,
not of mp4wm, so a change to the program moves the scaled times exactly as
much as the raw ones; only the machine's drift divides out.

The kernel mixes what an mp4wm job spends its time on: complex FFT round
trips and element-wise transcendental functions on 4096-sample arrays,
interpreted Python arithmetic, and small weighted least-squares Gaussian
fits like ``fit_gaussian``'s, whose many short library calls slow down
under contention more than the FFTs do.  It uses numpy only, which mp4wm
has loaded anyway, so it adds nothing to the process's peak memory.
The fits take a third to a half of the kernel's time.  Without them, job
times scaled on a busy 2-vCPU VM spread about twice as much between 50 s
windows.
"""
from __future__ import annotations

import math
from time import perf_counter

import numpy as np

NOMINAL_S = 0.040      # kernel time that defines the reference speed
_N = 4096
_FFT_ROUNDS = 60
_PY_LOOPS = 30_000
_FITS = 150

_rng = np.random.default_rng(12345)
_X = _rng.standard_normal(_N) + 1j * _rng.standard_normal(_N)
_T = np.linspace(-5.0, 5.0, 512)
_PULSE = np.exp(-(_T - 0.3) ** 2 / 2.0) * (1.0 + 0.01 * _rng.standard_normal(_T.size))


def _fit_centre(inten: np.ndarray) -> float:
    idx = np.flatnonzero(inten >= float(inten.max()) * math.exp(-2.0))
    t = _T[idx]
    a, b, _ = np.polyfit(t - t[np.argmax(inten[idx])], np.log(inten[idx]), 2, w=inten[idx])
    return -b / (2.0 * a)


def kernel() -> float:
    """Run the kernel once; return a checksum so no step can be skipped."""
    x = _X
    for _ in range(_FFT_ROUNDS):
        x = np.fft.ifft(np.fft.fft(x) * np.exp(-1j * np.abs(x))) / np.sqrt(1.0 + np.abs(x))
    s = 0.0
    for i in range(_PY_LOOPS):
        s += (i % 7) * 0.5 - s * 1e-6
    for _ in range(_FITS):
        s += _fit_centre(_PULSE)
    return float(np.abs(x).sum()) + s


def measure() -> float:
    """Seconds one kernel run takes now."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def settled(repeats: int = 2) -> float:
    """Mean kernel time over `repeats` runs after one untimed run (first FFT plans)."""
    kernel()
    return sum(measure() for _ in range(repeats)) / repeats
