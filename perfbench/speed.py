"""Host-speed gauge: times reported at the reference host's speed.

Small cloud hosts drift: on the 2-core reference host a fixed
pure-Python loop took anywhere from 1.15 to 1.8 ms within one minute,
depending on what neighbouring tenants ran, and every benchmark op
slowed by about the same factor.  A run therefore samples a fixed
calibration kernel beside its ops and scales its wall times by

    factor = KERNEL_REF_S / median(kernel samples of this run)

so that a change in the program moves a metric and a change in the
host's speed mostly does not.  Run reports show the raw times too.
"""

import statistics
import time
from typing import List

#: Seconds :func:`kernel` takes on the reference host (2-core Xeon,
#: CPython 3.11) when nothing else contends for the CPU.
KERNEL_REF_S = 1.2e-3


def kernel() -> int:
    """A fixed slice of interpreter work (about a millisecond)."""
    total = 0
    for value in range(20_000):
        total += value * value
    return total


class SpeedGauge:
    """Collects kernel timings; :meth:`factor` turns them into the scale
    that maps this host's wall times onto the reference host's."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, times: int = 1) -> None:
        clock = time.perf_counter
        for _ in range(times):
            began = clock()
            kernel()
            self.samples.append(clock() - began)

    def factor(self) -> float:
        return KERNEL_REF_S / statistics.median(self.samples)
