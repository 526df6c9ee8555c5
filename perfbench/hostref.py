"""Host reference loop: how fast this host runs pure Python right now.

The host's speed drifts by tens of percent within minutes, and the drift
reaches every kind of work the planner does.  A fixed loop mixing
``Fraction``, ``dict`` and ``float`` work (the same mix the planner's
exact tier, caches and float kernel lean on) is sampled between
operations, never while one is in flight; timings are then reported at
the nominal speed ``NOMINAL_REF_MS``.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction
from typing import List

#: Median reference-loop time, in ms, that reported timings are scaled to.
NOMINAL_REF_MS = 6.0


def ref_loop() -> float:
    """One fixed unit of Fraction + dict + float work (3.5-6.5 ms on a
    shared 2-CPU Linux host)."""
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i, i + 7)
        if acc > i:
            acc -= Fraction(i, 3)
    table = {}
    for i in range(6000):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
    total = 0.0
    for i in range(1, 20000):
        total += i / (i + 1.0)
    return float(acc) + len(table) + total


class HostRef:
    """Reference-loop samples of one process and the scale they imply."""

    def __init__(self) -> None:
        self.samples_ms: List[float] = []

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            started = time.perf_counter()
            ref_loop()
            self.samples_ms.append((time.perf_counter() - started) * 1000.0)

    def median_ms(self) -> float:
        return statistics.median(self.samples_ms)

    def local_scale(self, index: int, window: int = 5) -> float:
        """``scale()`` from the *window* samples around sample *index*."""
        lo = max(0, min(index - window // 2 - 1, len(self.samples_ms) - window))
        return NOMINAL_REF_MS / statistics.median(self.samples_ms[lo:lo + window])

    def scale(self) -> float:
        """Factor that turns a measured duration into a nominal-speed one
        (divide a rate by it)."""
        return NOMINAL_REF_MS / self.median_ms()
