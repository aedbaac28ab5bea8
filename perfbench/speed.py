"""How fast the CPU runs while a unit runs, measured from inside the unit.

On a shared machine the speed of a core drifts by tens of percent within
seconds, and differs between cores.  A calibration measured in another
process, or before and after the unit, does not track it.  `SpeedProbe`
therefore interrupts the unit's own thread every PERIOD_S of wall time
(SIGALRM) and times a fixed burst of interpreter and numpy work there.
`now()` is a clock that stops while a burst runs, so the unit's timings
exclude the bursts, and `scale()` converts seconds measured on `now()` into
seconds at the reference speed.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05

# Mean burst time on the reference machine (2-core x86-64 KVM guest,
# CPython 3.11.7, numpy 2.4.6).
REFERENCE_BURST_S = 0.002

_VEC = np.linspace(0.0, 1.0, 4096)


def burst() -> None:
    acc = 0
    for i in range(12_000):
        acc += (i * i) % 7
    for _ in range(60):
        acc += float(np.sqrt(_VEC * _VEC + 1.0).sum())


class SpeedProbe:
    def __init__(self):
        self.bursts = []
        self.paused = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        burst()
        dt = time.perf_counter() - t0
        self.bursts.append(dt)
        self.paused += dt

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def scale(self) -> float:
        """Reference seconds per measured second (1.0 without samples)."""
        if not self.bursts:
            return 1.0
        return REFERENCE_BURST_S / statistics.fmean(self.bursts)
