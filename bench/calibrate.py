"""Host-speed calibration for the throughput metric.

On a shared host the same single-threaded run speeds up and slows down by
up to a fifth over minutes, as other tenants load the machine; the slowdown
hits all code alike. Each worker therefore times this fixed kernel, a chain
block update on small complex matrices written with numpy and scipy only (no
chainmmse code), just before and after its `run` call, and the benchmark
reports trials_per_s scaled to the speed at which the kernel takes REF_S
seconds. The raw rate is kept beside it.
"""
from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg

# a round figure near the median kernel time on the host the benchmark was
# defined on: a 2-vCPU x86-64 VM, Python 3.11, numpy 2.4, OpenBLAS 0.3.31
REF_S = 0.05
REPEATS = 3


class Calibrator:
    """Times the kernel; building a Calibrator runs it once to warm it up."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.H = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        self.noise = rng.standard_normal((8, 96)) + 1j * rng.standard_normal((8, 96))
        gram = self.H @ self.H.conj().T + self.noise @ self.noise.conj().T / 96
        self.cho = scipy.linalg.cho_factor(gram)
        self._kernel()

    def _kernel(self, updates: int = 800) -> None:
        H, n, cho = self.H, self.noise, self.cho
        W = np.zeros((4, 8), complex)
        A = np.zeros((4, 4), complex)
        b = np.zeros((4, 96), complex)
        for _ in range(updates):
            fit = (np.eye(4) - A + W @ H) @ H.conj().T
            corr = (b - W @ n) @ n.conj().T / 96
            W_new = scipy.linalg.cho_solve(cho, (fit - corr).conj().T,
                                           check_finite=False).conj().T
            A = A - W @ H + W_new @ H
            b = b - W @ n + W_new @ n
            W = W_new

    def seconds(self) -> float:
        """Median kernel time over REPEATS timings."""
        times = []
        for _ in range(REPEATS):
            t = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t)
        return statistics.median(times)
