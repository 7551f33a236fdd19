"""Host-speed calibration for the end-to-end timings.

The benchmark runs on a few cores of a shared host whose speed moves with
the load of other tenants: it switches between a fast and a slow state
every few seconds, and the share of time spent in each drifts by tens of
percent over minutes.  Every pass of a workload is followed by a few runs
of a fixed kernel that does not touch cscgd.  The kernel mixes the kinds of
work cscgd does: an interpreter-bound loop over small numpy arrays (the
solver step), plain Python calls and dict lookups, ``scipy.special`` on
small arrays (fading sampling) and vectorised numpy passes over an array
kept small enough not to raise the process's peak RSS.

Both a pass and the kernel average over the host's fast and slow states,
so the run's mean kernel time against ``REFERENCE_S`` gives the host's
mean speed during the run.  A median would not: with two states, the
median kernel time jumps between them.  The end-to-end timings are reported
in reference seconds, that is measured time times ``REFERENCE_S`` over the
mean kernel time.  A change to cscgd moves the workload times and not the
kernel, so it shows in full; a slow stretch of the host moves both and
cancels.  The raw times and the mean kernel time are printed beside the
metrics and kept in the results file.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np
from scipy.special import gammaincinv

# About the mean kernel time on a 2-core x86-64 VM (CPython 3.11, numpy
# 2.4).  It only sets the scale of the reported times; any fixed value would
# do, as long as it never changes.
REFERENCE_S = 0.2
SAMPLES_PER_ROUND = 3


def _small_arrays(rng) -> float:
    x = rng.random(8)
    acc = 0.0
    for i in range(5_000):
        z = rng.exponential(1.0, size=8)
        g = np.minimum(x * z, 1.0)
        x = np.clip(x - 1e-3 * (g - 0.5), 0.0, 1.0)
        acc += float(g @ x) + (i * i) % 7
    return acc


class _Affine:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a = a
        self.b = b

    def __call__(self, v: float) -> float:
        return self.a * v + self.b


def _interpreter() -> float:
    f = _Affine(0.5, 1.0)
    table = {}
    acc = 0.0
    for i in range(150_000):
        acc = f(acc) * 0.5
        table[i & 255] = acc
        acc += math.sqrt(table.get(i & 127, 0.0))
    return acc


def _special(rng) -> float:
    acc = 0.0
    for _ in range(4_500):
        g = gammaincinv(2.5, rng.random(5))
        acc += float(np.maximum(g - 1.0, 0.0).sum())
    return acc


def _vectorised(rng) -> float:
    a = rng.random(20_000)
    for _ in range(500):
        a = np.clip(np.exp(-a) * a + 0.1, 0.0, 1.0)
    return float(a.sum())


def kernel() -> float:
    """Seconds taken by one run of the fixed calibration kernel."""
    rng = np.random.default_rng(20190721)
    t0 = perf_counter()
    acc = _small_arrays(rng) + _interpreter() + _special(rng) + _vectorised(rng)
    elapsed = perf_counter() - t0
    if not math.isfinite(acc):
        raise RuntimeError("calibration kernel produced a non-finite value")
    return elapsed


def sample(times: list) -> None:
    """Append ``SAMPLES_PER_ROUND`` kernel times to ``times``."""
    times.extend(kernel() for _ in range(SAMPLES_PER_ROUND))
