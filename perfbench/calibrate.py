"""Machine-speed calibration.

This machine's speed drifts: a fixed piece of work can take 30 % more
or less time from one few-second stretch to the next, and the two cores
drift independently. Every timed figure is therefore paired with a
calibration measured on the same core just before it, and reported
scaled to a reference speed:

    normalised time = measured time * REFERENCE_S / calibration time

The kernel mixes the three kinds of work the program does: Python loops
over dicts, small in-cache NumPy operations, and memory-bound scans and
sorts over a vocabulary-sized matrix. It does not use dwe, so no change
to the program can move it.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# median kernel time on the reference machine (2-core Xeon VM, Python
# 3.11, numpy 2.4, OpenBLAS 0.3.31, one BLAS thread); it only sets the
# scale of the normalised figures, and must change with the kernel
REFERENCE_S = 0.0094

_RNG = np.random.default_rng(0)
_M = _RNG.random((64, 64))
_V = _RNG.random(4096)
_IDS = _RNG.integers(0, 512, 2048)
_BIG = _RNG.random((4000, 300))   # 9.6 MB: a scan that misses the caches
_KEYS = _RNG.random(4000)


def _kernel() -> float:
    # Python-level work: dict updates as in the n-gram accumulation
    acc: dict[int, float] = {}
    for i in range(9000):
        k = i % 97
        acc[k] = acc.get(k, 0.0) + i
    # small in-cache array work, as in the glyph CNN
    m = _M
    for _ in range(72):
        m = np.maximum(m @ _M * 1e-2, 0.0)
    rows = np.zeros(512)
    for _ in range(6):
        np.add.at(rows, _IDS, _V[:2048])
    # memory-bound scans and sorts, as in queries over a vocabulary
    total = 0.0
    for _ in range(6):
        scores = _BIG @ _V[:300]
        total += scores[scores.argsort()[-1]]
        total += np.lexsort((_KEYS, -_KEYS))[0]
    return float(m.sum() + rows.sum() + sum(acc.values()) + total)


def calibrate() -> float:
    """Median time of three runs of the kernel, in seconds."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
