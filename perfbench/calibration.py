"""Machine-speed calibration of the timing metrics.

On a shared machine the processor's speed drifts by 20-50% over tens of
seconds, far more than a regression worth catching.  So the benchmark
times a fixed reference loop, which runs no crashguard code, between the
ops, and scales every op time by ``NOMINAL_S`` over the reference's recent
time.  A calibrated time is what the op would have taken at the speed at
which the reference takes ``NOMINAL_S``; a change to crashguard moves it
exactly as it moves wall time, while a slower machine moves it far less.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

PERIOD_S = 0.1  # the reference runs at most this often between ops
WINDOW = 5  # the scale uses the median of this many latest reference times
# The reference's time on a 2-core Intel Xeon (Python 3.11.7, numpy 2.4.6)
# at its usual speed, so calibrated times read close to wall times there.
NOMINAL_S = 0.003

_MATRIX = np.random.default_rng(0).random((6, 6))
_MATRIX /= _MATRIX.sum(axis=1, keepdims=True)


def reference() -> float:
    """Seconds of one pass of a fixed loop made of the kinds of work
    crashguard's ops are made of: interpreter work, 6x6 numpy products, and
    6x6 eigendecompositions, inverses and solves."""
    start = time.perf_counter()
    total = 0
    for i in range(6000):
        total += i * i % 7
    m = np.eye(6)
    for _ in range(200):
        m = m @ _MATRIX
        m /= m.sum()
    shifted = _MATRIX.T - np.eye(6) + 1.0
    for _ in range(30):
        _, vectors = np.linalg.eig(_MATRIX)
        np.linalg.inv(vectors)
        np.linalg.solve(shifted, np.ones(6))
    return time.perf_counter() - start


class Calibrator:
    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def warm(self):
        """Fill the window before the first scaled time."""
        for _ in range(WINDOW):
            self.run()

    def run(self):
        self.samples.append(reference())
        self._last = time.perf_counter()

    def tick(self):
        """Run the reference if PERIOD_S has passed since it last ran."""
        if time.perf_counter() - self._last >= PERIOD_S:
            self.run()

    def scale(self, seconds: float) -> float:
        """``seconds`` of wall time at the nominal speed."""
        return seconds * NOMINAL_S / statistics.median(self.samples[-WINDOW:])

    def record(self) -> dict:
        """How fast the machine ran, relative to nominal, over the run."""
        speed = NOMINAL_S / np.asarray(self.samples)
        return {
            "nominal_s": NOMINAL_S,
            "references": len(self.samples),
            "speed_p10_p50_p90": [round(float(x), 4) for x in np.percentile(speed, [10, 50, 90])],
        }
