"""Machine-speed calibration shared by the client and the worker.

On shared 2-core Intel Xeon machines (Python 3.11) CPU speed was measured
to move by up to a third within seconds (other tenants, shared cores), far
more than the bounds a regression check needs.  So every run also times a
fixed kernel of exact rational arithmetic that shares no code with the
package, interleaved with the measured operations, and divides its timings
by the speed the kernel shows:
``normalized = raw * KERNEL_REF_S / mean kernel time``.  A change to
the package moves the operations but not the kernel.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

KERNEL_REF_S = 0.004  # the kernel's time at the speed metrics are reported at


def kernel() -> Fraction:
    """About 1 200 exact additions and divisions, a set and a dict."""
    total = Fraction(0)
    seen = set()
    last = {}
    avg = total
    for k in range(1, 1200):
        total += Fraction(k * k, k % 7 + 1)
        avg = total / k
        seen.add(k)
        last[k & 63] = avg
    return avg


class Speed:
    """Accumulates kernel timings; ``factor`` > 1 means a slow machine."""

    def __init__(self):
        self.total_s = 0.0
        self.count = 0

    def sample(self) -> None:
        t0 = perf_counter()
        kernel()
        self.total_s += perf_counter() - t0
        self.count += 1

    @property
    def factor(self) -> float:
        return (self.total_s / self.count) / KERNEL_REF_S if self.count else 1.0
