"""Fixed reference kernel used to correct timings for host-speed drift.

On a shared host the clock speed available to one process drifts by tens
of percent between identical runs.  The kernel below does a fixed amount
of the same kinds of work the solver does (a sparse LU factorization and
solve through SciPy's SuperLU, short NumPy vector expressions and a plain
Python loop) and never calls ``hydrodr``.  The benchmark runs it at both
ends of every timed phase and between the program's operations inside it,
leaves its time out of the phase, and reports the phase's time ``t`` as
``t * NOMINAL_SECONDS / median(kernel times of that phase)``, i.e. in
seconds at the kernel's nominal speed.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# Median kernel time on the reference host (2-core Intel Xeon, Python
# 3.11, NumPy 2.4, SciPy 1.17, one BLAS thread).  A constant: changing it
# rescales every reported time.
NOMINAL_SECONDS = 0.004


class ReferenceKernel:
    """The kernel's inputs are built once from a fixed seed."""

    def __init__(self):
        rng = np.random.default_rng(20240522)
        n, m = 600, 300
        # banded rows, like the stage-coupled rows of a dispatch LP
        offsets = [0, 1, 3, 7, 12]
        a = sp.diags([rng.uniform(-1.0, 1.0, size=n) for _ in offsets], offsets,
                     shape=(m, n), format="csr")
        d = rng.uniform(0.5, 2.0, size=n)
        self.kkt = sp.bmat([[-sp.diags(d), a.T], [a, sp.diags(np.full(m, 1e-8))]],
                           format="csc")
        self.rhs = rng.standard_normal(n + m)
        self.vec = rng.uniform(0.1, 1.0, size=n)
        self.samples: list[float] = []

    def _work(self) -> float:
        sol = splu(self.kkt).solve(self.rhs)
        v = self.vec
        acc = 0.0
        for _ in range(60):
            step = np.where(v > 0.5, -v / (v + 1.0), v * 0.5)
            v = np.clip(v + 0.1 * step, 0.1, 1.0)
            acc += float(v @ step)
        total = 0
        for i in range(6000):
            total += (i * 7) % 13
        return float(sol[0]) + acc + total

    def run(self) -> float:
        """Run once, record and return the elapsed seconds."""
        t0 = time.perf_counter()
        self._work()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    @property
    def total(self) -> float:
        """Seconds spent in the kernel so far."""
        return float(sum(self.samples))

    def factor(self, first: int = 0) -> float:
        """Multiplier from raw seconds to seconds at nominal kernel speed,
        from the samples taken since sample number ``first``."""
        if len(self.samples) <= first:
            raise RuntimeError("the reference kernel has not run in this phase")
        return NOMINAL_SECONDS / float(np.median(self.samples[first:]))
