"""Host-speed calibration: a fixed piece of plain Python timed throughout a run.

The benchmark runs on shared hosts whose speed swings for tens of seconds
at a time as other tenants load the same cores: on the machine it was
written on, a 2-vCPU Intel Xeon at 2.0 GHz, the same pure-Python loop took
1.1x to 1.85x its best time from one 30-second window to the next, with CPU
time equal to wall time. No statistic over one run can separate that from a
change in the library.

So a run times, every INTERVAL_S between items, a fixed KERNEL made of the
operations the library spends its time in (Fraction products, tuples built
from generators, isinstance and all() checks, frozen dataclasses, set and
dict lookups). The kernel does not call the library, so a change in the
library never moves it. A timing taken while the kernel's median time is m
is reported scaled by REFERENCE_S / m: as it would read at the host speed
where the kernel takes REFERENCE_S. The raw timings are printed alongside.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

# the kernel's median time on the machine named above, Python 3.11.7, when
# its speed was typical of a busy hour; it only fixes the scale of the
# reported figures
REFERENCE_S = 0.0015
# the kernel runs at most once per interval, between items
INTERVAL_S = 0.05


@dataclass(frozen=True)
class _Point:
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not all(isinstance(c, int) and c >= 0 for c in self.counts):
            raise ValueError(self.counts)


def kernel() -> int:
    """A lattice walk and a Fourier-Motzkin style row combination."""
    points = [
        _Point(tuple(int(x) for x in (a, b, c)))
        for a in range(5)
        for b in range(5)
        for c in range(4)
    ]
    fits = sum(1 for p in points if all(x <= y for x, y in zip(p.counts, (3, 4, 2))))
    index = {p.counts: p for p in points}
    rows = [
        tuple(Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3) for j in range(4))
        for i in range(10)
    ]
    pos = [r for r in rows if r[0] > 0]
    neg = [r for r in rows if r[0] < 0]
    combined = {
        tuple(x * -b[0] + y * a[0] for x, y in zip(a[1:], b[1:])) for a in pos for b in neg
    }
    return fits + len(index) + len(combined)


class Calibrator:
    """Collects kernel timings; `tick` runs the kernel when one is due."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._due = 0.0

    def tick(self) -> None:
        if perf_counter() < self._due:
            return
        self.run(1)

    def run(self, times: int) -> None:
        for _ in range(times):
            t0 = perf_counter()
            kernel()
            t1 = perf_counter()
            self.samples.append(t1 - t0)
        self._due = t1 + INTERVAL_S

    def take(self) -> list[float]:
        """The samples since the last take."""
        samples, self.samples = self.samples, []
        return samples


def scale(samples: list[float]) -> float:
    """Factor that brings timings taken alongside `samples` to REFERENCE_S speed."""
    return REFERENCE_S / statistics.median(samples)
