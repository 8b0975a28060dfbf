"""Machine-speed calibration for a shared, drifting host.

On a shared host the same op can take twice as long a second later,
because other tenants compete for the same processor, and a run's
medians cannot remove a slowdown that lasts longer than the run.  So the benchmark runs a fixed
kernel before every op and after the last one, on the same CPU as the
op, and reports each op's time at reference speed:

    reference time = wall time * REFERENCE_KERNEL_MS / kernel time,

with the kernel time taken as the mean of the kernels just before and
just after the op.  The kernel is frozen benchmark code that never calls
abelode, so a change to the program moves the reported times one for
one, and a change in the machine's speed does not.  Its mix follows the
program's: scalar Python float work (Horner evaluation and bisection, as
in root isolation) and small numpy calls (3x3 solves, as in the Radau
stage iteration).
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

#: the kernel's time at reference speed; reported times are scaled to it
REFERENCE_KERNEL_MS = 5.0


def _horner(coeffs: list[float], y: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * y + c
    return acc


def _bisect(coeffs: list[float], lo: float, hi: float) -> float:
    f_lo = _horner(coeffs, lo)
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        f_mid = _horner(coeffs, mid)
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def kernel() -> float:
    """A fixed amount of program-like work; returns a checksum."""
    total = 0.0
    for i in range(48):
        shift = 0.005 * i
        r = 0.3 + shift
        coeffs = [2.0 * r, r - 2.0, -1.0 - r, 1.0]  # (y - r)(y - 2)(y + 1)
        total += _bisect(coeffs, 0.0, 1.0 + shift) + math.exp(-shift)
    matrix = np.eye(3) - 0.1 * np.arange(9.0).reshape(3, 3) / 9.0
    k = np.ones(3)
    for _ in range(240):
        k = k + np.linalg.solve(matrix, -0.5 * k)
        total += float(np.max(np.abs(k)))
    return total


class SpeedProbe:
    """Kernel timings interleaved with a run's ops."""

    def __init__(self):
        kernel()  # the first call pays for cold caches
        self.kernel_ms: list[float] = []

    def tick(self) -> None:
        """Time one kernel run; call before the first op and after every op."""
        start = perf_counter()
        kernel()
        self.kernel_ms.append(1e3 * (perf_counter() - start))

    def factor(self, index: int) -> float:
        """Factor from wall to reference time for op `index` (0-based), from
        the kernels just before and just after it."""
        around = 0.5 * (self.kernel_ms[index] + self.kernel_ms[index + 1])
        return REFERENCE_KERNEL_MS / around
