"""Times in reference-core seconds.

On a small shared machine other tenants slow the benchmark's core by 20-50 %
in episodes that last from a second to many minutes, longer than a run, so
neither medians nor minima over one run make wall times repeatable.  A fixed
reference kernel, timed between ops, measures how fast the core is at that
moment; an op's wall time times REF_CORE_S / (reference time around the op)
is its time on an uncontended core.

REF_CORE_S is the reference kernel's time on an uncontended core of the
machine the benchmark was tuned on (Intel Xeon, 2 vCPUs, OpenBLAS 0.3.31,
numpy 2.4).  On other machines scaled times are in units of that core.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REF_CORE_S = 0.0027
SAMPLE_EVERY_S = 0.05  # at most one reference sample per 50 ms of ops

_MATS = [np.random.default_rng(i).random((16, 16)) for i in range(8)]


def reference_time() -> float:
    """Wall time of a fixed mix of small numpy operations and interpreter work
    like flagf's own.  Its data (16 KB) stays in cache, so what ran before it
    does not change its time."""
    t0 = time.perf_counter()
    acc = 0.0
    for a in _MATS * 6:
        q = a - a.T
        p = q @ q
        acc += float(np.max(np.abs(p + p.T)))
        v = q[np.triu_indices(16, 1)] * 1.4142135623730951
        acc += float(v @ v)
        acc += float(np.linalg.svd(a[:8, :8], compute_uv=False)[0])
        _d = {i: (i, a.shape) for i in range(40)}
    return time.perf_counter() - t0


class RefClock:
    """Samples the reference kernel and scales wall times by it."""

    def __init__(self):
        self.samples: list[float] = []
        self._taken_at = -math.inf

    def sample(self) -> float:
        self.samples.append(reference_time())
        self._taken_at = time.perf_counter()
        return self.samples[-1]

    def current(self) -> float:
        """The latest reference time, sampled afresh if it is older than SAMPLE_EVERY_S."""
        if time.perf_counter() - self._taken_at >= SAMPLE_EVERY_S:
            return self.sample()
        return self.samples[-1]

    @staticmethod
    def scale(wall_s: float, ref_before: float, ref_after: float) -> float:
        """``wall_s`` in reference-core seconds, given the reference times around it."""
        return wall_s * 2.0 * REF_CORE_S / (ref_before + ref_after)

    def summary(self) -> dict:
        return {"count": len(self.samples), "median_s": statistics.median(self.samples), "min_s": min(self.samples)}
