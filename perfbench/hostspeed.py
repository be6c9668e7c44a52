"""A probe of the host's current speed, for the short serving operations.

On a shared host the same single-row ``classify`` call takes one time for
some seconds and twice as long for the next ones, as other tenants come
and go, so even the fastest of a run's calls spreads widely across runs.
The probe times a fixed routine of the same kind of work (histograms,
cumulative sums and argmax over small NumPy arrays) that never touches
coeye, so no change to the program moves it. A call timed between two
probes is scaled by ``REFERENCE_S`` over their mean: the time the call
would have taken on a host where the probe takes ``REFERENCE_S``.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.0015
_ITERATIONS = 150
_REPEATS = 3


class HostProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._cols = rng.integers(0, 8, size=(32, 5))
        self._y = rng.integers(0, 2, size=32)
        self._offsets = np.arange(5) * 8

    def _work(self) -> None:
        for _ in range(_ITERATIONS):
            codes = (self._offsets + self._cols) * 2 + self._y[:, None]
            hist = np.bincount(codes.ravel(), minlength=80).reshape(5, 8, 2)
            np.argmax(hist.cumsum(axis=1).sum(axis=2))

    def measure(self) -> float:
        """The fastest of a few repeats of the routine, in seconds."""
        best = float("inf")
        for _ in range(_REPEATS):
            t0 = time.perf_counter()
            self._work()
            best = min(best, time.perf_counter() - t0)
        return best


def adjust(seconds: float, before: float, after: float) -> float:
    """A wall time in reference seconds, given the probe just before and just after it."""
    return seconds * REFERENCE_S / ((before + after) / 2.0)
