r"""Independent reference machinery.

Everything here deliberately avoids the steepest-descent code paths so it
can serve as the second route of every cross-check: a self-contained
adaptive Gauss-Kronrod integrator (embedded 7/15-point pair with
worst-interval bisection), the reduced one-dimensional reference for the
rectangular-duct problem, and nested brute-force integration of planar
polar integrands at moderate frequencies.

The integrator takes one interval or a sequence of panels, and bisects
each panel worst interval first.  Each integrand call looks ahead: it
evaluates, on one flat 1-D array, the children of the worst intervals of
every unfinished panel, 128 in all, that have none yet.  Each panel then
replays its bisections while its worst interval has its children, so it
is bit-identical to bisecting it alone; only the number of calls falls.

Integrand callables must be numpy-vectorized (1-D array in, array out);
every integrand in this package is.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .polar import AngularRegion

__all__ = [
    "AdaptiveResult",
    "OracleNotConverged",
    "adaptive_quad_1d",
    "acoustics_reference",
    "brute_force_polar",
]

_MAX_SUBDIVISIONS = 10**6
_BUDGET = 128  # intervals whose children one look-ahead call evaluates

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
    fx = np.asarray(f((mid[:, None] + half[:, None] * _XK).ravel()), dtype=complex).reshape(-1, 15)
    k15 = half * np.sum(_WK * fx, axis=1)
    g7 = half * np.sum(_WG * fx[:, 1::2], axis=1)
    # |K15 - G7| tracks the error of the *Gauss* value and therefore
    # overestimates the returned Kronrod value's error; kept raw so the
    # estimate stays a usable upper bound.  hypot, not np.abs: numpy's
    # complex-array abs differs from the scalar one in the last bit.
    d = k15 - g7
    return k15.tolist(), np.hypot(d.real, d.imag).tolist()


def adaptive_quad_1d(f, a, b, tol: float = 1e-12) -> AdaptiveResult:
    """Adaptive complex-valued integration of ``f`` over ``[a, b]``.

    Bisects the interval with the largest error estimate of an embedded
    7/15-point Gauss-Kronrod pair until the summed estimate drops below
    ``tol`` or the subdivision cap (1e6) is reached.  ``f`` must accept a
    1-D numpy array.

    ``a`` and ``b`` may also be equal-length sequences of panels.  Each
    panel is bisected on its own, to its own ``tol``, exactly as a single
    interval would be, and the panel values are summed in panel order.
    Each call of ``f`` takes the ``max(1, _BUDGET // panels)`` worst
    intervals of each unfinished panel (``_BUDGET`` = 128) and evaluates the
    children of those that have none; the result does not depend on this
    batching.  Endpoints must be finite with a < b, and ``tol`` finite and
    at least 1e-14.
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
    vals, errs = _gk15(f, lo, hi)
    # Heap entry: (-err, count, lo, hi, value, children or None); count is
    # unique in a panel, so entries compare on (-err, count) alone.
    heaps = [[(-e, 0, l, h, v, None)] for l, h, v, e in zip(lo.tolist(), hi.tolist(), vals, errs)]
    total_err = errs
    count = [1] * len(heaps)
    active = [i for i, e in enumerate(total_err) if e > tol and count[i] < _MAX_SUBDIVISIONS]
    while active:
        width = max(1, _BUDGET // len(active))
        tops, edges = [], []
        for i in active[:_BUDGET]:
            heap = heaps[i]
            top = [heapq.heappop(heap)]
            while len(top) < width and heap:
                top.append(heapq.heappop(heap))
            tops.append(top)
            for _, _, l, h, _, kids in top:
                if kids is None:
                    mid = 0.5 * (l + h)
                    edges += (l, mid, mid, h)
        child_lo, child_hi = np.array(edges).reshape(-1, 2).T
        vals, errs = _gk15(f, child_lo, child_hi)
        fresh = zip(vals[0::2], errs[0::2], vals[1::2], errs[1::2])
        still = active[_BUDGET:]
        for i, top in zip(active, tops):
            heap, n = heaps[i], 0
            for t in top:
                if n and heap[0] < t:  # a child of this round comes first: wait for its children
                    still.append(i)
                    break
                neg_err, _, l, h, _, kids = t
                v1, e1, v2, e2 = kids or next(fresh)
                total_err[i] += neg_err  # remove this interval's estimate
                mid = 0.5 * (l + h)
                heapq.heappush(heap, (-e1, count[i], l, mid, v1, None))
                heapq.heappush(heap, (-e2, count[i] + 1, mid, h, v2, None))
                total_err[i] += e1 + e2
                count[i] += 2
                n += 1
                if (h - l < 1e-15 * max(1.0, abs(l) + abs(h))  # at machine resolution
                        or not total_err[i] > tol or count[i] >= _MAX_SUBDIVISIONS):
                    break
            else:
                still.append(i)
            for neg_err, k, l, h, v, kids in top[n:]:
                heapq.heappush(heap, (neg_err, k, l, h, v, kids or next(fresh)))
        active = still
    values = [complex(np.sum(np.array([item[4] for item in sorted(heap, key=lambda t: t[2])])))
              for heap in heaps]
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
    ``ceil(w/100)`` panels first to keep each subdivision queue shallow.
    All panels go into one ``adaptive_quad_1d`` call, which evaluates the
    children of up to 128 intervals per integrand call.  ``omega``, ``a`` and
    ``b`` must be finite and > 0, and each panel must reach ``tol``; a stalled
    panel raises ``OracleNotConverged`` naming omega and the panel.
    """
    for name, arg in (("omega", omega), ("a", a), ("b", b)):
        if not (arg > 0 and math.isfinite(arg)):
            raise ValueError(f"acoustics_reference needs a finite {name} > 0, got {name}={arg}")

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
    return 1j / omega * res.value


def brute_force_polar(scene, region, tol: float = 1e-8) -> complex:
    """Nested adaptive integration of a bounded polar integrand in two dimensions.

    Integrates ``f(r, th) exp(i w g(r, th)) r`` over the star-shaped domain
    of the scene and the angular interval of ``region``.  Independent of
    all steepest-descent machinery; practical up to roughly ``w = 200``.
    Other dimensions raise ``NotImplementedError``: 3-D accuracy is checked
    against the closed form ``specfun.ellipsoid_reference``.

    Unbounded scenes are rejected: adaptive quadrature cannot certify the
    oscillatory tail, so unbounded references must come from closed forms.
    """
    if scene.boundary_radius is None:
        raise ValueError("brute_force_polar requires a bounded (star-shaped) scene")
    if not isinstance(region, AngularRegion):
        raise TypeError(f"expected AngularRegion, got {type(region).__name__}")
    if scene.n != region.n:
        raise ValueError(f"scene and region disagree: scene.n = {scene.n}, region.n = {region.n}")
    if scene.n != 2:
        raise NotImplementedError(f"brute force only covers n = 2; got n = {scene.n}")
    omega = scene.omega

    def radial(th):
        R = float(scene.boundary_radius(th))

        def f_r(r):
            rr = np.asarray(r, dtype=float)
            amp = scene.amplitude(rr, th)
            osc = np.exp(1j * omega * np.asarray(scene.oscillator(rr, th), dtype=complex))
            return amp * osc * rr

        res = adaptive_quad_1d(f_r, 0.0, R, tol * 0.1)
        if not res.converged:
            raise OracleNotConverged(f"radial integral stalled at angle={th}")
        return res.value

    def f_theta(th):
        return np.array([radial(t) for t in np.atleast_1d(th)])

    (lo, hi), = region.intervals
    res = adaptive_quad_1d(f_theta, lo, hi, tol)
    if not res.converged:
        raise OracleNotConverged("angular integral did not converge")
    return complex(scene.phase_at_origin) * res.value
