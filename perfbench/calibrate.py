"""Host-speed calibration for CPU-bound timings.

The benchmark host shares its cores with other tenants, and its speed drifts
by a quarter or more over tens of seconds — far more than the changes the
benchmark has to resolve.  :class:`HostClock` times a fixed reference kernel
(a small dense product, a sparse product and an interpreter loop, ~1 ms)
between units of work, each time after sweeping a buffer larger than a
core's L2 cache, so every sample starts equally cold whatever ran before; a CPU-bound duration multiplied by
:meth:`HostClock.factor` is expressed at the host speed where the kernel
takes :data:`REFERENCE_S`.  Durations dominated by sleeping, joining or
schedule-driven waiting are reported as measured.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np
import scipy.sparse as sp

#: kernel time at the reference host speed (its median on the host the
#: benchmark was defined on: 2 vCPUs, numpy with single-threaded OpenBLAS)
REFERENCE_S = 0.7e-3
#: bytes swept before each sample (twice that host's 2 MiB per-core L2)
SWEEP_BYTES = 4 << 20


class HostClock:
    def __init__(self):
        rng = np.random.default_rng(20240101)
        self._dense = rng.normal(size=(128, 128))
        self._rhs = rng.normal(size=(128, 128))
        self._sparse = sp.random(3000, 3000, density=0.002, format="csr",
                                 random_state=7)
        self._features = rng.normal(size=(3000, 32))
        self._sweep = np.zeros(SWEEP_BYTES // 8)
        self.samples: List[float] = []

    def kernel(self) -> float:
        product = self._dense @ self._rhs
        propagated = self._sparse @ self._features
        total = 0
        table = {}
        for index in range(1500):
            table[index & 63] = table.get(index & 63, 0) + index
            total += index * 3
        return float(product[0, 0] + propagated[0, 0] + total)

    def sample(self, count: int = 1) -> None:
        """Time ``count`` runs of the reference kernel."""
        for _ in range(count):
            self._sweep += 1.0
            start = time.perf_counter()
            self.kernel()
            self.samples.append(time.perf_counter() - start)

    def factor(self) -> float:
        """Reference over measured kernel time (1.0 at reference speed)."""
        if not self.samples:
            raise ValueError("no calibration samples taken")
        return REFERENCE_S / statistics.median(self.samples)
