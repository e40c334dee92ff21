"""A fixed reference kernel that measures how fast the machine runs now.

Other tenants of a shared machine compete for its caches, memory bandwidth
and core time.  They slow single-threaded numerical code by up to 70%, in
phases lasting from a fraction of a second to minutes, so raw times of one
version differ by 25% from run to run.  The benchmark samples this kernel
before the first op and after every op, and scales each op's time by the
kernel's nominal time over its median time on both sides of the op: a
phase that slows both cancels out.

A sample is one kernel run that is thrown away, because it finds the
caches as the op left them and so reads slow by an amount that depends on
the op, then at least ``KERNEL_RUNS`` runs and more until they fill
``KERNEL_SHARE`` of the op's time.  A long op is thus set against the
machine's speed over a window in proportion to it, and only the number of
runs, not their expected median, depends on the op.  Over five seeds of
``hier_n3`` (two N=3 ops of 3 and 11 s), the spread of the calibrated pass
time was 4.9% with these samples and 9-10% with three runs per side; over
six seeds of ``pipeline_n2`` (45 ops of 0.1-0.5 s) both gave 3-4%, against
11.5% raw.  Over ten seeds, twice, ``hier_n3`` spread by 12-14% calibrated
and 7.5-8% raw (see README.md): its large BLAS calls do not follow the
kernel as closely as the small solves of ``pipeline_n2`` do.

On the 2-core Intel Xeon (2.1 GHz) the benchmark was tuned on, one N=2
solve looped for 60 s had window means spread over +-13%, and its ratio
to the interleaved kernel over +-2%.  Heavy contention can slow the kernel
more than the package, so calibrated times read low in busy phases; ops of
several seconds are sampled only at their ends.

The kernel mixes what the package spends its time on: dense complex
Hermitian eigensolves, a Cholesky and an LU solve, complex matrix products
and interpreter-bound loops over small arrays.  It calls numpy and scipy
only, never the package, so no change to the package can move it.
"""

from __future__ import annotations

import statistics
import time

# the kernel's median time on the tuning machine over 930 samples (11 ms
# at the fastest, 20 ms at the 90th percentile).  It only sets the scale:
# calibrated times read as seconds on that machine at its typical load.
NOMINAL_MS = 17.0
KERNEL_RUNS = 3  # kept kernel runs per sample, at the least
KERNEL_SHARE = 0.1  # and as many as fit in this share of the op's time


class Reference:
    def __init__(self):
        import numpy as np
        import scipy.linalg

        rng = np.random.default_rng(1)
        a = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
        b = rng.standard_normal((300, 300))
        self._np = np
        self._sl = scipy.linalg
        self._a = a + a.conj().T
        self._b = b @ b.T + 300.0 * np.eye(300)
        self._small = [rng.standard_normal((4, 4)) for _ in range(50)]
        for _ in range(3):  # first calls page in code and data
            self._kernel()

    def _kernel(self) -> None:
        np, sl = self._np, self._sl
        for _ in range(2):
            np.linalg.eigh(self._a)
        np.linalg.cholesky(self._b)
        sl.lu_solve(sl.lu_factor(self._b), self._b[:, :50])
        for _ in range(5):
            self._a @ self._a
        x = self._small[0]
        for _ in range(40):
            for s in self._small:
                x = np.dot(x, s)
                x = x / np.abs(x).max()

    def sample(self, op_ms: float = 0.0) -> list[float]:
        """Kernel times (ms) after an op of ``op_ms``, the first run left out."""
        self._kernel()
        out: list[float] = []
        while len(out) < KERNEL_RUNS or sum(out) < KERNEL_SHARE * op_ms:
            t0 = time.perf_counter()
            self._kernel()
            out.append(1e3 * (time.perf_counter() - t0))
        return out


def speed_factors(samples: list[list[float]]) -> list[float]:
    """Per op, the kernel's nominal time over its median time around the op.

    ``samples[i]`` are the kernel times taken just before op ``i`` and
    ``samples[i + 1]`` those just after it.  Multiply an op's time by its
    factor to read it as a time at the tuning machine's typical load.
    """
    return [NOMINAL_MS / statistics.median(a + b) for a, b in zip(samples, samples[1:])]
