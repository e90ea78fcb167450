"""Host-speed calibration: a fixed kernel timed between ops.

On a shared host the core this benchmark runs on slows down and speeds up
with its neighbours' load: the same op can take 0.15 s for a minute and
0.28 s the next, in CPU time as well as wall time.  Averaging over a run does
not remove swings that last minutes, so the end-to-end times are scaled by
the host's speed, measured right beside each op.

The kernel never calls stimpairs, so no change to the library moves it.  It
mixes the kinds of work the workloads do: Python bytecode (imports, the CLI,
the loop around numpy), numpy calls on small arrays, a sparse complex matrix
times a vector (the Fock evolution), and a small L-BFGS fit (the MLE and
fringe fits).  The matrix is kept small because on Linux a `cli` child's
peak RSS starts from this process's high-water mark.  NOMINAL_S is
a fixed reference a little above the kernel's median on the host the
figures in baseline.json come from, where a run's median is 6 ms while the
core is quiet and 9 ms while it is busy.

The kernel runs before each op, for about SHARE of the time the previous op
took and at least once, so a one-second op gets a few samples beside it.  An
op that took t seconds while the kernel, averaged over the samples within
WINDOW_S of the op, took k seconds is reported as t * NOMINAL_S / k: its time
on a host where the kernel takes NOMINAL_S.  The raw times are reported
beside the scaled ones.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

NOMINAL_S = 0.010
SHARE = 0.05
MAX_SAMPLES = 8  # per call of sample()
WINDOW_S = 1.0  # kernel samples within this many seconds of an op's start or end
MIN_SAMPLES = 4  # when fewer lie in the window, the nearest ones are used

_SMALL = np.linspace(0.0, 3.0, 37)
_WIDE = np.linspace(0.0, 6.0, 3605)
_SPARSE_DIM = 1 << 14
_SPARSE_OFFSETS = (0, 1, -1, 257, -257)  # 1.6 MB of matrix, 0.25 MB of vector
_sparse = None


def _objective(p):
    d = p - _SMALL[:8]
    return float((d * d).sum() + np.cos(p).sum()), 2.0 * d - np.sin(p)


def kernel() -> float:
    global _sparse
    from scipy import optimize, sparse

    if _sparse is None:
        diagonals = [np.full(_SPARSE_DIM - abs(k), 0.1j if k >= 0 else 0.1) for k in _SPARSE_OFFSETS]
        _sparse = sparse.diags(diagonals, _SPARSE_OFFSETS, format="csr", dtype=complex)

    acc = 0.0
    table: dict[int, float] = {}
    for i in range(12000):
        table[i & 63] = acc
        acc += i * 0.5 % 3.0
    for _ in range(300):
        acc += float((np.exp(-_SMALL) * np.cos(_SMALL)).sum())
    for _ in range(30):
        acc += float(np.sin(_WIDE).dot(np.tanh(_WIDE)))
    vec = np.ones(_SPARSE_DIM, dtype=complex)
    for _ in range(2):
        vec = _sparse @ vec
    acc += float(np.abs(vec[:64]).sum())
    fit = optimize.minimize(_objective, np.zeros(8), jac=True, method="L-BFGS-B")
    return acc + float(fit.fun)


class HostClock:
    """Kernel samples taken through a run, and the speed scale they imply."""

    def __init__(self):
        kernel()  # first touch of scipy.optimize and the arrays is not a sample
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def sample(self, after_s: float = 0.0) -> None:
        """Time the kernel about SHARE * after_s seconds, at least once."""
        for _ in range(max(1, min(MAX_SAMPLES, round(SHARE * after_s / NOMINAL_S)))):
            t0 = time.perf_counter()
            kernel()
            self.starts.append(t0)
            self.seconds.append(time.perf_counter() - t0)

    def kernel_s(self, start: float, end: float) -> float:
        """Mean kernel time over the samples near [start, end]."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.starts, start)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.starts) - MIN_SAMPLES))
            hi = min(len(self.starts), lo + MIN_SAMPLES)
        return sum(self.seconds[lo:hi]) / (hi - lo)

    def scaled(self, start: float, seconds: float) -> float:
        """seconds, measured from start, at the nominal host speed."""
        return seconds * NOMINAL_S / self.kernel_s(start, start + seconds)
