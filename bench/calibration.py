"""Calibration kernel: a fixed 3-type replicator RK4 in plain numpy, no simplexdyn code.

The benchmark runs it around every timed operation to measure how fast the
machine is at that moment.  Run as a script (``python3 bench/calibration.py``)
it is the calibration of a fresh-process operation: interpreter start,
``import numpy`` and one kernel run.
"""

import os
import subprocess
import time

import numpy as np

STEPS = 200
#: Timings are scaled to these readings: µs per kernel step in process, and
#: seconds for a fresh interpreter to run the kernel.  Both are about the
#: fast phase of the kernel on a 2-core Xeon VM.
REFERENCE_US = 20.0
REFERENCE_SPAWN_S = 0.2


def kernel_us() -> float:
    """µs per step of the kernel."""
    a = np.array([[0.0, -1.0, 1.2], [1.2, 0.0, -1.0], [-1.0, 1.2, 0.0]])
    x = np.array([0.5, 0.25, 0.25])

    def field(y):
        f = a @ y
        return y * (f - y @ f)

    t0 = time.perf_counter()
    for _ in range(STEPS):
        k1 = field(x)
        k2 = field(x + 0.005 * k1)
        k3 = field(x + 0.005 * k2)
        k4 = field(x + 0.01 * k3)
        x = x + (0.01 / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        x = x / x.sum()
    return (time.perf_counter() - t0) / STEPS * 1e6


def spawn_seconds(python: str) -> float:
    """Seconds for a fresh interpreter to import numpy and run the kernel once."""
    t0 = time.perf_counter()
    subprocess.run([python, os.path.abspath(__file__)], check=True)
    return time.perf_counter() - t0


def scaled(elapsed: float, before: float, after: float, reference: float) -> float:
    """``elapsed`` at the reference reading, given the readings that bracket it."""
    return elapsed * reference / ((before + after) / 2.0)


if __name__ == "__main__":
    kernel_us()
