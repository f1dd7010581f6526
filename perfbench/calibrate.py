"""Calibration kernel for run.py: prints its wall time once per stdin line.

It runs in its own interpreter so that the benchmark process stays small:
a verb's peak RSS, read with wait4, includes the RSS of the process that
started it.
"""

import sys
import time

import numpy as np


def kernel_s(rng: np.random.Generator) -> float:
    """Wall time of a fixed mix of interpreter, sampling and memory work."""
    t = time.perf_counter()
    s = 0
    for i in range(150_000):
        s += i * i % 7
    np.partition(rng.exponential(1.0, size=(1000, 100)), 30, axis=1)
    np.ones(2_000_000).cumsum()
    return time.perf_counter() - t


if __name__ == "__main__":
    rng = np.random.default_rng(0)
    for _ in sys.stdin:
        print(repr(kernel_s(rng)), flush=True)
