"""Report timings at a fixed machine speed, gauged by a reference computation.

On a shared machine the same work can run 1.5 to 2 times slower for minutes
while other tenants load the host, and process time slows with wall time,
so neither longer runs nor medians make raw timings repeat. The gauge runs
a fixed computation, small numpy array operations plus interpreter work
like the program's, every ``SAMPLE_INTERVAL`` seconds between program steps.
A measured interval is reported as the time it would take at the speed at
which the reference takes ``REFERENCE_SECONDS``: its duration, less the
gauge's own samples inside it, times ``REFERENCE_SECONDS`` over the median
reference time of the samples taken from ``WINDOW`` seconds before it to
``WINDOW`` seconds after it. The machine's speed changes over seconds; one
sample alone varies more than that.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left
from time import perf_counter

import numpy as np

REFERENCE_SECONDS = 2.5e-3
SAMPLE_INTERVAL = 0.25
WINDOW = 1.0

_X = np.linspace(-1.0, 1.0, 32 * 12 * 24).reshape(32, 12, 24)
_W = np.linspace(-1.0, 1.0, 24 * 8).reshape(24, 8)


def reference_work() -> float:
    total = 0.0
    for i in range(20):
        s = _X @ _W
        t = s @ np.swapaxes(s, -1, -2)
        e = np.exp(t - t.max(axis=-1, keepdims=True))
        total += float(((e / e.sum(axis=-1, keepdims=True)) @ s).sum())
        table = {}
        for k in range(60):
            table[k] = k * i
    return total


class SpeedGauge:
    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []

    def sample(self) -> None:
        start = perf_counter()
        reference_work()
        self.starts.append(start)
        self.ends.append(perf_counter())

    def maybe_sample(self) -> None:
        if not self.ends or perf_counter() - self.ends[-1] >= SAMPLE_INTERVAL:
            self.sample()

    def seconds(self, start: float, end: float) -> float:
        """``end - start`` without the gauge's samples, at the reference speed."""
        first, stop = bisect_left(self.starts, start), bisect_left(self.starts, end)
        busy = sum(self.ends[i] - self.starts[i] for i in range(first, stop))
        near = range(bisect_left(self.starts, start - WINDOW), bisect_left(self.starts, end + WINDOW))
        if not near:  # no sample within the window: the closest one
            closest = min(range(len(self.starts)), key=lambda i: abs(self.starts[i] - start))
            near = range(closest, closest + 1)
        reference = statistics.median(self.ends[i] - self.starts[i] for i in near)
        return (end - start - busy) * REFERENCE_SECONDS / reference
