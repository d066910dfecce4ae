"""Timings at a reference machine speed.

The speed of a shared virtual machine drifts: on the 2-vCPU machine this
benchmark was written on, the same loop takes 3.7 ms for some seconds and
5.9 ms for the next.  A run therefore samples the speed while it measures:
two fixed loops of the benchmark's own (``numeric_kernel`` and
``symbolic_kernel``) run between operations and, on a timer signal, every
``INTERVAL`` seconds during them.  An operation's wall time is converted to
reference seconds piece by piece, each piece scaled by the reference
duration of the loop matching the operation's arithmetic over the loop's
duration measured next to it; the loops' own time is left out.  No ``hhrec``
code runs in the loops, so a change to the package moves its reference
seconds as it moves its wall time.
"""

from __future__ import annotations

import bisect
import math
import signal
from fractions import Fraction
from time import perf_counter

INTERVAL = 0.2
_U, _V = 3 ** 6000 + 1, 7 ** 3500 + 3   # about 9,500 and 9,800 bits


def numeric_kernel() -> int:
    """Greatest common divisors of products of ~10,000-bit integers.

    ``Fraction`` arithmetic on large rationals spends its time in exactly
    these; of the loops tried, this one tracked the slow-down of ``gen``,
    ``closed-form`` and numeric ``verify`` best.
    """
    return sum(math.gcd(_U * (_V + a) + 1, _U + _V + a) for a in range(8))


def symbolic_kernel() -> int:
    """Small-``Fraction`` steps and dict updates keyed by exponent tuples.

    Laurent polynomials are dicts from exponent tuples to integers; this
    loop tracked the slow-down of the symbolic operations best.
    """
    size = 0
    for a in (1, 2, 3, 5):
        x = [Fraction(2, 3), Fraction(-5, 4), Fraction(7, 9)]
        for m in range(3, 40):
            x.append((x[m - 1] * x[m - 2] + a * (x[m - 2] + x[m - 1])) / x[m - 3])
        terms: dict = {}
        for i in range(1500):
            key = (i % 7, -(i % 5), i % 3, i % 11)
            terms[key] = terms.get(key, 0) + a * i * i
        size += len(terms)
    return size


# each kernel's duration at the reference speed: about its median during
# benchmark runs on the machine above (Python 3.11.7), so reference seconds
# read close to wall seconds there
KERNELS = {"numeric": (numeric_kernel, 0.0045), "symbolic": (symbolic_kernel, 0.006)}


class Speedometer:
    """Samples of both kernels' durations, taken on demand and on a timer."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: dict[str, list[float]] = {domain: [] for domain in KERNELS}
        self._busy = False

    def sample(self) -> None:
        if self._busy:  # the timer fired inside a sample
            return
        self._busy = True
        self.starts.append(perf_counter())
        for domain, (kernel, _) in KERNELS.items():
            t0 = perf_counter()
            kernel()
            self.durations[domain].append(perf_counter() - t0)
        self.ends.append(perf_counter())
        self._busy = False

    def start(self) -> None:
        """Sample every INTERVAL seconds until ``stop``."""
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def kernel_seconds(self, a: float, b: float) -> float:
        """Time the kernels took inside [a, b]."""
        return sum(e - s for s, e in zip(self.starts, self.ends) if a <= s and e <= b)

    def reference_seconds(self, a: float, b: float, domain: str) -> float:
        """Wall time in [a, b], less the kernels' own, in reference seconds.

        ``domain`` names the kernel to scale by.  Each stretch between two
        samples is scaled by the mean of their durations; a stretch with a
        sample on one side only, by that one.
        """
        durations = self.durations[domain]
        i = bisect.bisect_right(self.starts, a) - 1   # last sample begun by a
        before = durations[i] if i >= 0 else None
        t, total = a, 0.0
        j = i + 1
        while j < len(self.starts) and self.starts[j] < b:
            d = durations[j] if before is None else (before + durations[j]) / 2
            total += (self.starts[j] - t) / d
            t, before = self.ends[j], durations[j]
            j += 1
        if t < b:
            after = durations[j] if j < len(durations) else None
            d = [v for v in (before, after) if v is not None]
            total += (b - t) / (sum(d) / len(d))
        return total * KERNELS[domain][1]
