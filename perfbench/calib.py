"""Fixed speed reference timed next to every measured operation.

The host's speed changes in phases that last seconds and that the guest
cannot see (CPU time equals wall time; steal stays near zero).  Dividing an
operation's wall time by the time of this kernel, taken next to it, cancels
those phases.  The kernel mixes numpy ufuncs on small arrays, numpy on
scalars and a pure-Python loop: the blend of costs the library's
operations have.  It does not import nsdq, so a change to the library
cannot move it.  Of the kernels tried, this blend tracked the ops of all
four workloads best; on the planar ellipse rows it held the calibrated
time to a 5% range across processes, against 9% for the array-and-loop
part alone and 26% for raw wall time.
"""

from __future__ import annotations

import cmath
import statistics
import time

import numpy as np

# Median time of one kernel call on the reference host (2 vCPU x86-64,
# Python 3.11, numpy 2.4).  Calibrated times are wall times scaled to this
# host at that speed: wall * NOMINAL_MS / kernel_ms.
NOMINAL_MS = 0.40

_X = np.linspace(0.1, 1.0, 64) + 0.0j


def kernel() -> float:
    acc = 0.0
    for k in range(12):  # ufuncs on small arrays, and a Python loop
        y = np.exp(1j * k * _X) * np.sqrt(_X) / (1.0 + _X * _X)
        acc += float(np.sum(y).real)
        for j in range(40):
            acc += (j * 0.5) % 3.0
    for k in range(60):  # numpy and cmath on scalars, as scalar Newton steps do
        z = complex(0.3 + 0.01 * k, 0.1)
        v = np.sin(z) / np.sqrt(1.0 + np.sin(z) ** 2)
        acc += abs(complex(v)) + cmath.exp(1j * z).real
    return acc


def time_kernel() -> float:
    """Wall time of one kernel call, in ms."""
    t0 = time.perf_counter()
    kernel()
    return (time.perf_counter() - t0) * 1e3


def window_medians(samples, half: int = 3):
    """Median of the calibration samples around each gap between them.

    ``samples[i]`` was taken just before operation ``i`` and ``samples[i+1]``
    just after it; the result has one entry per operation, the median of
    ``half`` samples on each side, which ignores a single interrupted
    kernel call.
    """
    out = []
    for i in range(len(samples) - 1):
        lo, hi = max(0, i + 1 - half), min(len(samples), i + 1 + half)
        out.append(statistics.median(samples[lo:hi]))
    return out
