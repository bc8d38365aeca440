r"""Independent reference machinery.

Everything here deliberately avoids the steepest-descent code paths so it
can serve as the second route of every cross-check: a self-contained
adaptive Gauss-Kronrod integrator (embedded 7/15-point pair with
worst-interval bisection), the reduced one-dimensional reference for the
rectangular-duct problem, and nested brute-force integration of polar
integrands at moderate frequencies.

Integrand callables must be numpy-vectorized (array in, array out); every
integrand in this package is.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AdaptiveResult",
    "OracleNotConverged",
    "adaptive_quad_1d",
    "acoustics_reference",
    "brute_force_polar",
]

_MAX_SUBDIVISIONS = 10**6

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
    """Value, error estimate and work count of an adaptive integration."""

    value: complex
    est_error: float
    subdivisions: int
    converged: bool = True


def _gk15(f, a, b):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = np.asarray(f(mid + half * _XK), dtype=complex)
    k15 = half * np.sum(_WK * fx)
    g7 = half * np.sum(_WG * fx[1::2])
    # |K15 - G7| tracks the error of the *Gauss* value and therefore
    # overestimates the returned Kronrod value's error; kept raw so the
    # estimate stays a usable upper bound.
    return k15, abs(k15 - g7)


def adaptive_quad_1d(f, a: float, b: float, tol: float = 1e-12) -> AdaptiveResult:
    """Adaptive complex-valued integration of ``f`` over ``[a, b]``.

    Bisects the interval with the largest error estimate of an embedded
    7/15-point Gauss-Kronrod pair until the summed estimate drops below
    ``tol`` or the subdivision cap (1e6) is reached.  ``f`` must accept numpy
    arrays.
    """
    if tol < 1e-14:
        raise ValueError(f"tolerance below 1e-14 is not resolvable, got {tol}")
    if not a < b:
        raise ValueError(f"adaptive_quad_1d needs a < b, got [{a}, {b}]")
    val, err = _gk15(f, a, b)
    heap = [(-err, 0, a, b, val)]
    total_err = err
    count = 1
    while total_err > tol and count < _MAX_SUBDIVISIONS:
        neg_err, _, lo, hi, v = heapq.heappop(heap)
        total_err += neg_err  # remove this interval's estimate
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        heapq.heappush(heap, (-e1, count, lo, mid, v1))
        heapq.heappush(heap, (-e2, count + 1, mid, hi, v2))
        total_err += e1 + e2
        count += 2
        if hi - lo < 1e-15 * max(1.0, abs(lo) + abs(hi)):
            break  # interval exhausted at machine resolution
    value = complex(np.sum(np.array([item[4] for item in sorted(heap, key=lambda t: t[2])])))
    return AdaptiveResult(value, float(total_err), count, converged=total_err <= tol)


def acoustics_reference(omega: float, a: float = 1.0, b: float = 2.0, tol: float = 1e-13) -> complex:
    r"""Reduced reference for the rectangular-duct pressure integral.

    The double integral over ``[0, a] x [0, b]`` of
    ``exp(i w sqrt(x^2+y^2)) / sqrt(x^2+y^2) * y cos(x)`` collapses, by
    integrating out y exactly, to

        (i/w) int_0^a (exp(i w x) - exp(i w sqrt(x^2 + b^2))) cos(x) dx,

    which is evaluated adaptively.  For ``w > 2000`` the range is split into
    ``ceil(w/100)`` panels first to keep the subdivision queue shallow.
    """
    if not (omega > 0 and math.isfinite(omega)):
        raise ValueError(f"acoustics_reference needs a finite omega > 0, got omega={omega}")

    def integrand(x):
        return (np.exp(1j * omega * x) - np.exp(1j * omega * np.sqrt(x * x + b * b))) * np.cos(x)

    if omega > 2000:
        panels = int(math.ceil(omega / 100.0))
        edges = np.linspace(0.0, a, panels + 1)
        total = 0.0 + 0.0j
        for lo, hi in zip(edges[:-1], edges[1:]):
            res = adaptive_quad_1d(integrand, lo, hi, tol)
            if not res.converged:
                raise OracleNotConverged(
                    f"acoustics reference stalled on panel [{lo}, {hi}] at omega={omega}"
                )
            total += res.value
    else:
        res = adaptive_quad_1d(integrand, 0.0, a, tol)
        if not res.converged:
            raise OracleNotConverged(f"acoustics reference did not converge at omega={omega}")
        total = res.value
    return 1j / omega * total


def brute_force_polar(scene, region, tol: float = 1e-8) -> complex:
    """Nested adaptive integration of a bounded polar integrand.

    Integrates ``f(r, th) exp(i w g(r, th)) r^(n-1)`` over the star-shaped
    domain of the scene and the angular boxes of ``region``.  Independent of
    all steepest-descent machinery; practical up to roughly ``w = 200`` in
    two dimensions and ``w = 60`` in three.

    Unbounded scenes are rejected: adaptive quadrature cannot certify the
    oscillatory tail, so unbounded references must come from closed forms.
    """
    if scene.boundary_radius is None:
        raise ValueError("brute_force_polar requires a bounded (star-shaped) scene")
    from .polar import AngularRegion  # local import to avoid a cycle

    if not isinstance(region, AngularRegion):
        raise TypeError(f"expected AngularRegion, got {type(region).__name__}")
    omega = scene.omega
    n = scene.n

    def radial(theta_angles):
        R = float(scene.boundary_radius(*theta_angles))

        def f_r(r):
            rr = np.asarray(r, dtype=float)
            amp = scene.amplitude(rr, *theta_angles)
            osc = np.exp(1j * omega * np.asarray(scene.oscillator(rr, *theta_angles), dtype=complex))
            return amp * osc * rr ** (n - 1)

        res = adaptive_quad_1d(f_r, 0.0, R, tol * 0.1)
        if not res.converged:
            raise OracleNotConverged(f"radial integral stalled at angles={theta_angles}")
        return res.value

    total = 0.0 + 0.0j
    for box in region.boxes:
        if n == 2:
            (lo, hi), = box

            def f_theta(th):
                th = np.atleast_1d(th)
                return np.array([radial((t,)) for t in th])

            res = adaptive_quad_1d(f_theta, lo, hi, tol)
            if not res.converged:
                raise OracleNotConverged("angular integral did not converge")
            total += res.value
        elif n == 3:
            (lo1, hi1), (lo2, hi2) = box

            def f_phi1(phi1_arr):
                phi1_arr = np.atleast_1d(phi1_arr)
                out = np.empty(phi1_arr.shape, dtype=complex)
                for i, p1 in enumerate(phi1_arr):
                    def f_phi2(phi2_arr):
                        phi2_arr = np.atleast_1d(phi2_arr)
                        return np.array([radial((p1, p2)) for p2 in phi2_arr])

                    inner = adaptive_quad_1d(f_phi2, lo2, hi2, tol)
                    if not inner.converged:
                        raise OracleNotConverged("inner angular integral did not converge")
                    out[i] = inner.value * math.sin(p1)
                return out

            res = adaptive_quad_1d(f_phi1, lo1, hi1, tol)
            if not res.converged:
                raise OracleNotConverged("outer angular integral did not converge")
            total += res.value
        else:
            raise NotImplementedError(f"brute force only covers n = 2, 3; got n = {n}")
    return complex(scene.phase_at_origin) * total
