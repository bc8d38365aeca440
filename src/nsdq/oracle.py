r"""Independent reference machinery.

Everything here deliberately avoids the steepest-descent code paths so it
can serve as the second route of every cross-check: a self-contained
adaptive Gauss-Kronrod integrator (embedded 7/15-point pair with
worst-interval bisection) and the reduced one-dimensional reference for
the rectangular-duct problem.

The integrator takes one interval or a sequence of panels, in groups of
at most 128 panels, each group bisected in rounds of array operations: a
panel splits the worst intervals that worst-first bisection, one at a
time, would split before its total reached the tolerance.

Integrand callables must be numpy-vectorized (1-D array in, array out);
every integrand in this package is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AdaptiveResult",
    "OracleNotConverged",
    "adaptive_quad_1d",
    "acoustics_reference",
]

_MAX_SUBDIVISIONS = 10**6
_BUDGET = 128  # panels of one group; a call of f gets the children of at most this many intervals
_MAX_OMEGA = 1e6  # acoustics_reference's largest omega: 10^4 panels

# Gauss 7 / Kronrod 15 pair on [-1, 1].  Kronrod nodes are symmetric; the
# odd-indexed ones are the embedded Gauss nodes.
_XK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])


class OracleNotConverged(RuntimeError):
    """Raised when an adaptive reference fails to reach its tolerance."""


@dataclass(frozen=True)
class AdaptiveResult:
    """Value, error estimate and work count of an adaptive integration.

    Over several panels ``value`` is the sum of the panel values,
    ``est_error`` and ``subdivisions`` are summed as well, and ``stalled``
    holds the indices of the panels that missed the tolerance.
    """

    value: complex
    est_error: float
    subdivisions: int
    stalled: tuple = ()

    @property
    def converged(self) -> bool:
        return not self.stalled


def _gk15(f, lo, hi):
    # Kronrod values and error estimates of every interval [lo_i, hi_i] from
    # one call of f on the flat array of all their nodes.
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    x = (mid[:, None] + half[:, None] * _XK).ravel()
    fx = np.asarray(f(x), dtype=complex)
    if fx.shape != x.shape:
        raise ValueError(f"adaptive_quad_1d: f returned shape {fx.shape} for input shape {x.shape}")
    fx = fx.reshape(-1, 15)
    k15 = half * (_WK * fx).sum(axis=1)
    g7 = half * (_WG * fx[:, 1::2]).sum(axis=1)
    # |K15 - G7| tracks the error of the *Gauss* value and therefore
    # overestimates the returned Kronrod value's error; kept raw so the
    # estimate stays a usable upper bound.  hypot, not np.abs: numpy's
    # complex-array abs differs from the scalar one in the last bit.
    d = k15 - g7
    return k15, np.hypot(d.real, d.imag)


def _bisect_panels(f, lo, hi, tol):
    # every panel of lo, hi (at most _BUDGET) to completion.  A row of iv is
    # an interval (estimate, lo, hi, Re and Im of its value, panel).
    val, err = _gk15(f, lo, hi)
    iv = np.column_stack((err, lo, hi, val.view(float).reshape(-1, 2), np.arange(lo.size)))
    n = np.ones(lo.size, dtype=int)
    half_cap = (_MAX_SUBDIVISIONS + 2) // 2  # n intervals are 2n - 1 subdivisions
    live = n < half_cap  # neither at the cap nor at machine resolution
    res = 2e-15 * max(1.0, np.abs(lo).max(), np.abs(hi).max())  # no wider interval is at machine resolution
    deep = math.log2((hi - lo).min() / res)  # a round halves widths at most once: rounds before any is
    values, ests, counts = [None] * lo.size, [0.0] * lo.size, [0] * lo.size
    while True:
        # by panel, worst first; the sort is stable, so ties keep their age
        iv = iv.take(np.lexsort((-iv[:, 0], iv[:, 5])), axis=0)
        ends = n.cumsum()
        starts = ends - n
        total = np.add.reduceat(iv[:, 0], starts)
        # reduceat's sum is within N * 2**-53 of fsum's: closer to tol, fsum decides
        go = (total > tol * (1 + 4e-16 * len(iv))) & live
        if np.count_nonzero(go) < go.size:
            for r in (~go).nonzero()[0]:
                ints = iv[starts[r]:ends[r]]
                i = int(ints[0, 5])
                values[i] = complex(ints[:, 3:5].take(ints[:, 1].argsort(), axis=0).view(complex).sum())
                ests[i], counts[i] = math.fsum(ints[:, 0].tolist()), 2 * int(n[r]) - 1
                go[r] = ests[i] > tol and live[r]
            if not go.any():
                return values, ests, counts
            iv, n, live, total = iv.compress(go.repeat(n), axis=0), n[go], live[go], total[go]
            ends = n.cumsum()
            starts = ends - n
        # Split each interval whose estimate, with those after it, exceeds tol:
        # one-at-a-time bisection would split it before the total reached tol.
        # Each panel is scaled by its total, so the running sum's rounding is relative to it.
        inv = 1.0 / total
        run = (iv[:, 0] * inv.repeat(n)).cumsum()
        cut = np.maximum(run.searchsorted(run[ends - 1] - tol * inv), starts) + 1
        if 2 * len(iv) >= half_cap:  # else no panel can reach the cap
            live &= cut < starts + half_cap - n
            cut = np.minimum(cut, starts + half_cap - n)
        split = np.arange(len(iv)) < cut.repeat(n)
        kids = iv.compress(split, axis=0).repeat(2, axis=0)
        l, h = kids[0::2, 1], kids[1::2, 2]
        kids[0::2, 2] = kids[1::2, 1] = 0.5 * (l + h)
        for s in range(0, len(kids), 2 * _BUDGET):
            part = kids[s:s + 2 * _BUDGET]
            v, part[:, 0] = _gk15(f, part[:, 1], part[:, 2])
            part[:, 3:5] = v.view(float).reshape(-1, 2)
        deep -= 1
        if deep < 0:  # a panel that split an interval at machine resolution stops
            tiny = h - l < 1e-15 * np.maximum(1.0, np.abs(l) + np.abs(h))
            live[np.searchsorted(starts, split.nonzero()[0][tiny], side="right") - 1] = False
        iv = np.concatenate((iv.compress(~split, axis=0), kids))
        n += cut - starts


def adaptive_quad_1d(f, a, b, tol: float = 1e-12) -> AdaptiveResult:
    """Adaptive complex-valued integration of ``f`` over ``[a, b]``.

    Bisects the interval with the largest error estimate of an embedded
    7/15-point Gauss-Kronrod pair until the summed estimate drops below
    ``tol`` or the subdivision cap (1e6) is reached.

    ``a`` and ``b`` may also be equal-length sequences of panels.  Each
    panel is bisected on its own, to its own ``tol``, exactly as a single
    interval would be, and the panel values are summed in panel order.
    The panels run in groups of at most ``_BUDGET`` (128), each to
    completion, so memory does not grow with their number; ``f`` gets the
    children of a round in calls of at most ``2 * _BUDGET`` intervals.
    ``est_error`` is the ``math.fsum`` of the final estimates, the sum the
    stop test reads.  Endpoints must be finite with a < b, ``tol`` finite
    and at least 1e-14, and ``f`` must map a 1-D array to one value per point.
    """
    if not (tol >= 1e-14 and math.isfinite(tol)):
        raise ValueError(f"adaptive_quad_1d needs a finite tol >= 1e-14, got {tol}")
    lo, hi = (np.ravel(x).astype(float) for x in np.broadcast_arrays(a, b))
    if not lo.size:
        raise ValueError("adaptive_quad_1d needs at least one panel")
    bad = np.flatnonzero(~((lo < hi) & np.isfinite(lo) & np.isfinite(hi)))
    if bad.size:
        i = bad[0]
        raise ValueError(f"adaptive_quad_1d needs finite a < b, got [{lo[i]}, {hi[i]}]")
    values, total_err, count = [], [], []
    for start in range(0, lo.size, _BUDGET):
        group = _bisect_panels(f, lo[start:start + _BUDGET], hi[start:start + _BUDGET], tol)
        for out, part in zip((values, total_err, count), group):
            out += part
    value = values[0]
    for v in values[1:]:
        value += v
    stalled = tuple(i for i, e in enumerate(total_err) if not e <= tol)
    return AdaptiveResult(value, math.fsum(total_err), sum(count), stalled)


def acoustics_reference(omega: float, a: float = 1.0, b: float = 2.0, tol: float = 1e-13) -> complex:
    r"""Reduced reference for the rectangular-duct pressure integral.

    The double integral over ``[0, a] x [0, b]`` of
    ``exp(i w sqrt(x^2+y^2)) / sqrt(x^2+y^2) * y cos(x)`` collapses, by
    integrating out y exactly, to

        (i/w) int_0^a (exp(i w x) - exp(i w sqrt(x^2 + b^2))) cos(x) dx,

    which is evaluated adaptively.  For ``w > 2000`` the range is split into
    ``ceil(w/100)`` panels first to keep each panel's partition shallow,
    all in one ``adaptive_quad_1d`` call.  ``omega``, ``a`` and ``b`` must
    be finite and > 0, and ``omega <= 1e6`` (10^4 panels), or ValueError
    is raised before any panel is built; a result that is not finite
    raises ValueError naming omega.  A panel that stalls before ``tol``
    raises ``OracleNotConverged`` naming omega and the panel.
    """
    for name, arg in (("omega", omega), ("a", a), ("b", b)):
        if not (arg > 0 and math.isfinite(arg)):
            raise ValueError(f"acoustics_reference needs a finite {name} > 0, got {name}={arg}")
    if omega > _MAX_OMEGA:
        raise ValueError(f"acoustics_reference covers omega <= {_MAX_OMEGA:g}, got omega={omega:g}")

    def integrand(x):
        return (np.exp(1j * omega * x) - np.exp(1j * omega * np.sqrt(x * x + b * b))) * np.cos(x)

    panels = int(math.ceil(omega / 100.0)) if omega > 2000 else 1
    edges = np.linspace(0.0, a, panels + 1)
    res = adaptive_quad_1d(integrand, edges[:-1], edges[1:], tol)
    if not res.converged:
        i = res.stalled[0]
        raise OracleNotConverged(
            f"acoustics reference stalled on panel {i} [{edges[i]}, {edges[i + 1]}] at omega={omega}"
        )
    if not np.isfinite(value := 1j / omega * res.value):
        raise ValueError(f"acoustics_reference is not finite at omega={omega}: got {value}")
    return value
