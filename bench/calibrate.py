"""A fixed reference kernel that measures how fast the host runs right now.

Hosts shared with other tenants run the same code up to about 1.6x
slower for seconds to minutes at a time, and every timing of a run moves
with them.  The benchmark runs this kernel between its ops, probes and
CLI runs, and divides its end-to-end times by the run's slowdown: the
kernel's median time over the run divided by NOMINAL_S.  The kernel
never calls helson and allocates nothing large, so a change to the
library moves the scaled times exactly as much as the raw ones.
"""

import statistics
import time

import numpy as np

# median kernel time on a 2-core x86-64 VM (Python 3.11, numpy 2.4,
# OpenBLAS with one thread) while the host was quiet
NOMINAL_S = 0.060

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((96, 96)) / 96
_S = _A[:48, :48] + _A[:48, :48].T
_V = _rng.standard_normal(96)
_B = _rng.standard_normal((700, 700))  # 3.9 MB: beyond the caches of one core
_BIG = _rng.standard_normal(1 << 20)
_OUT = np.empty_like(_BIG)


def kernel():
    """Interpreter loops, small matrix-vector products and eigh calls, and
    memory-bound sweeps over arrays larger than the cache: the mix of the
    workloads' inner loops, about 60 ms."""
    acc, table = 0, {}
    for k in range(60_000):
        acc = (acc * 31 + k) % 1_000_003
        table[k & 255] = acc
    x = _V
    for _ in range(1500):
        x = _A @ x
        x = x / np.linalg.norm(x)
    for _ in range(20):
        w = np.linalg.eigh(_S)[0]
    y = np.ones(len(_B))
    for _ in range(40):
        y = _B @ y
        y /= np.abs(y).max()
    for _ in range(12):
        np.abs(_BIG, out=_OUT)
        np.sqrt(_OUT, out=_OUT)
    return acc, float(x[0]), float(w[0]), float(y[0]), float(_OUT[0])


class Calibrator:
    """Kernel timings spread over a run, at most one per ``every_s`` seconds."""

    def __init__(self, every_s):
        self.every_s = every_s
        self.samples = []
        self._last = None
        kernel()  # first call, so that samples time the host, not warm-up

    def sample(self, force=False):
        """Time the kernel once; without ``force``, skip it if it ran less
        than ``every_s`` ago."""
        now = time.perf_counter()
        if not force and self._last is not None and now - self._last < self.every_s:
            return
        start = time.perf_counter()
        kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - start)

    def slowdown(self):
        """Median kernel time over NOMINAL_S: above 1 while the host runs slow."""
        return statistics.median(self.samples) / NOMINAL_S
